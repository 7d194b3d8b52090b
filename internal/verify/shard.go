package verify

import (
	"errors"
	"fmt"

	"remo/internal/cluster"
	"remo/internal/plan"
)

// ErrSharding marks a broken shard-conservation invariant: a tree
// without exactly one accountable owner, an orphan ledger that
// disagrees with the liveness state, or a merged result that is not the
// union of its per-shard partials.
var ErrSharding = errors.New("verify: shard conservation violated")

// ShardState is the dispatcher-side snapshot Sharding checks: the
// tree→shard accountability map (orphans included, booked to the dead
// shard they came from), the shards the dispatcher has declared dead
// (not those merely crashed: a crash is not a death until the
// suspicion window says so), and the orphans awaiting re-dispatch.
type ShardState struct {
	Shards     int
	Assignment map[string]int
	Dead       []int
	Pending    []string
}

// Sharding asserts the sharded tier's conservation invariants against
// the installed forest:
//
//   - every installed tree is owned by exactly one shard, in range;
//   - the accountability map carries no retired (un-installed) trees;
//   - a tree booked to a live shard is being collected, so it must not
//     sit in the orphan queue; a tree booked to a dead shard must —
//     orphanhood and dead ownership are the same fact seen from the
//     queue and from the map.
func Sharding(st ShardState, forest *plan.Forest) error {
	if st.Shards < 1 {
		return fmt.Errorf("%w: %d shards", ErrSharding, st.Shards)
	}
	dead := make(map[int]bool, len(st.Dead))
	for _, s := range st.Dead {
		dead[s] = true
	}
	pending := make(map[string]bool, len(st.Pending))
	for _, k := range st.Pending {
		pending[k] = true
	}

	installed := make(map[string]bool)
	for _, t := range forest.Trees {
		k := t.Attrs.Key()
		installed[k] = true
		s, owned := st.Assignment[k]
		if !owned {
			return fmt.Errorf("%w: installed tree %q has no owning shard", ErrSharding, k)
		}
		if s < 0 || s >= st.Shards {
			return fmt.Errorf("%w: tree %q owned by out-of-range shard %d of %d",
				ErrSharding, k, s, st.Shards)
		}
		if dead[s] && !pending[k] {
			return fmt.Errorf("%w: tree %q booked to dead shard %d but not queued as an orphan",
				ErrSharding, k, s)
		}
		if !dead[s] && pending[k] {
			return fmt.Errorf("%w: tree %q owned by live shard %d yet queued as an orphan",
				ErrSharding, k, s)
		}
	}
	for k := range st.Assignment {
		if !installed[k] {
			return fmt.Errorf("%w: assignment carries retired tree %q", ErrSharding, k)
		}
	}
	for _, k := range st.Pending {
		if !installed[k] {
			return fmt.Errorf("%w: orphan queue carries retired tree %q", ErrSharding, k)
		}
	}
	return nil
}

// ShardUnion asserts that the merged session result is the union of
// the per-shard partials (the residual collector's included): the
// demand partition across shards is exact — every demanded pair is
// accounted to exactly one partial — so coverage and delivery counters
// must sum to the merged ones.
func ShardUnion(merged cluster.Result, partials []cluster.Result) error {
	if len(partials) == 0 {
		return fmt.Errorf("%w: no per-shard partials", ErrSharding)
	}
	var demanded, covered, values int
	for _, p := range partials {
		demanded += p.DemandedPairs
		covered += p.CoveredPairs
		values += p.ValuesDelivered
	}
	if demanded != merged.DemandedPairs {
		return fmt.Errorf("%w: partials demand %d pairs, merged reports %d",
			ErrSharding, demanded, merged.DemandedPairs)
	}
	if covered != merged.CoveredPairs {
		return fmt.Errorf("%w: partials cover %d pairs, merged reports %d",
			ErrSharding, covered, merged.CoveredPairs)
	}
	if values != merged.ValuesDelivered {
		return fmt.Errorf("%w: partials delivered %d values, merged reports %d",
			ErrSharding, values, merged.ValuesDelivered)
	}
	return nil
}
