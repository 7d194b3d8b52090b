package verify

import (
	"fmt"
	"math"

	"remo/internal/agg"
	"remo/internal/cluster"
	"remo/internal/model"
)

// Result cross-checks a live collection result against the demand that
// produced it. The invariants hold for every run — chaos, failures,
// topology hot-swaps and all — because they restate what the collector
// is defined to measure rather than predicting any particular outcome:
//
//   - DemandedPairs matches an independent recount of the demand
//     (holistic pairs folded through the alias resolver, plus one
//     logical target per aggregated attribute);
//   - 0 ≤ CoveredPairs ≤ DemandedPairs, and covering anything requires
//     having received at least one value;
//   - the round count is non-negative; rates and errors are finite
//     percentages in [0, 100], staleness is finite, non-negative and
//     below the round count (a view cannot predate round 0);
//   - traffic counters are non-negative;
//   - durability counters are non-negative, and buffered frames are
//     conserved (redelivered + shed never exceeds buffered);
//   - suppression counters are non-negative and conserved: no more
//     values suppressed than observed, every suppressed value either
//     imputed or accounted lost, and every imputed value inside the
//     dead band (ImputeBandMax, a fraction of the band, is ≤ 1).
//
// ctx.Demand must be the demand currently installed in the machine
// (after any repair pruning or adaptation), since the collector
// retargets its accounting on every Install.
func Result(ctx Context, res cluster.Result) error {
	if ctx.Sys == nil || ctx.Demand == nil {
		return fmt.Errorf("%w: nil system or demand", ErrResult)
	}
	if want := recountDemanded(ctx); res.DemandedPairs != want {
		return fmt.Errorf("%w: reports %d demanded pairs, demand recounts to %d",
			ErrResult, res.DemandedPairs, want)
	}
	if res.CoveredPairs < 0 || res.CoveredPairs > res.DemandedPairs {
		return fmt.Errorf("%w: covered %d of %d demanded pairs",
			ErrResult, res.CoveredPairs, res.DemandedPairs)
	}
	if res.CoveredPairs > 0 && res.ValuesDelivered <= 0 {
		return fmt.Errorf("%w: %d pairs covered with no values delivered",
			ErrResult, res.CoveredPairs)
	}
	if res.Rounds < 0 {
		return fmt.Errorf("%w: %d rounds", ErrResult, res.Rounds)
	}
	if !(res.PercentCollected >= 0 && res.PercentCollected <= 100) {
		return fmt.Errorf("%w: PercentCollected %.3f outside [0, 100]",
			ErrResult, res.PercentCollected)
	}
	if !(res.AvgPercentError >= 0 && res.AvgPercentError <= 100) {
		return fmt.Errorf("%w: AvgPercentError %.3f outside [0, 100]",
			ErrResult, res.AvgPercentError)
	}
	if !(res.AvgStaleness >= 0 && res.AvgStaleness < math.Inf(1)) ||
		(res.Rounds > 0 && res.AvgStaleness >= float64(res.Rounds)) {
		return fmt.Errorf("%w: AvgStaleness %.3f outside [0, %d)",
			ErrResult, res.AvgStaleness, res.Rounds)
	}
	if res.MessagesSent < 0 || res.MessagesDropped < 0 || res.ValuesDelivered < 0 {
		return fmt.Errorf("%w: negative traffic counters (sent %d, dropped %d, values %d)",
			ErrResult, res.MessagesSent, res.MessagesDropped, res.ValuesDelivered)
	}
	if res.StaleEpochFrames < 0 || res.FramesBuffered < 0 || res.FramesShed < 0 ||
		res.FramesRedelivered < 0 {
		return fmt.Errorf("%w: negative durability counters (stale %d, buffered %d, shed %d, redelivered %d)",
			ErrResult, res.StaleEpochFrames, res.FramesBuffered, res.FramesShed, res.FramesRedelivered)
	}
	if res.FramesRedelivered+res.FramesShed > res.FramesBuffered {
		return fmt.Errorf("%w: %d redelivered + %d shed exceed %d buffered frames",
			ErrResult, res.FramesRedelivered, res.FramesShed, res.FramesBuffered)
	}
	if res.ValuesObserved < 0 || res.ValuesSuppressed < 0 || res.ValuesImputed < 0 ||
		res.ModelSyncs < 0 || res.MarkersLost < 0 {
		return fmt.Errorf("%w: negative suppression counters (observed %d, suppressed %d, imputed %d, syncs %d, lost %d)",
			ErrResult, res.ValuesObserved, res.ValuesSuppressed, res.ValuesImputed,
			res.ModelSyncs, res.MarkersLost)
	}
	if res.ValuesSuppressed > res.ValuesObserved {
		return fmt.Errorf("%w: %d values suppressed of %d observed",
			ErrResult, res.ValuesSuppressed, res.ValuesObserved)
	}
	if res.ValuesImputed+res.MarkersLost > res.ValuesSuppressed {
		return fmt.Errorf("%w: %d imputed + %d lost markers exceed %d suppressed values",
			ErrResult, res.ValuesImputed, res.MarkersLost, res.ValuesSuppressed)
	}
	if res.ImputeBandMax < 0 || res.ImputeBandMax > 1+1e-9 {
		return fmt.Errorf("%w: ImputeBandMax %.9f outside [0, 1]",
			ErrResult, res.ImputeBandMax)
	}
	return ResultShardCounters(res)
}

// ResultShardCounters checks the collection tier's fields of a result
// (also run by Result) for internal consistency: at least one shard,
// shards down within bounds, no more re-dispatches than orphanings,
// exactly one watermark per shard, each a round the session ran or the
// never-live sentinel -1.
func ResultShardCounters(res cluster.Result) error {
	if res.Shards < 1 {
		return fmt.Errorf("%w: %d shards", ErrResult, res.Shards)
	}
	if res.ShardsDown < 0 || res.ShardsDown > res.Shards {
		return fmt.Errorf("%w: %d of %d shards down", ErrResult, res.ShardsDown, res.Shards)
	}
	if res.OrphanedTrees < 0 || res.TreesRedispatched < 0 ||
		res.TreesRedispatched > res.OrphanedTrees {
		return fmt.Errorf("%w: %d trees redispatched of %d orphaned",
			ErrResult, res.TreesRedispatched, res.OrphanedTrees)
	}
	if res.LeaderElections < 0 {
		return fmt.Errorf("%w: %d leader elections", ErrResult, res.LeaderElections)
	}
	if len(res.ShardWatermarks) != res.Shards {
		return fmt.Errorf("%w: %d watermarks for %d shards",
			ErrResult, len(res.ShardWatermarks), res.Shards)
	}
	for s, w := range res.ShardWatermarks {
		if w < -1 || w >= res.Rounds {
			return fmt.Errorf("%w: shard %d watermark %d outside [-1, %d)",
				ErrResult, s, w, res.Rounds)
		}
	}
	return nil
}

// DemandedPairs is the context's independent recount of the logical
// pair targets the collector should report: alias-folded holistic pairs
// plus one target per aggregated attribute.
func (ctx Context) DemandedPairs() int {
	return recountDemanded(ctx)
}

// recountDemanded independently reproduces the collector's
// demanded-pair accounting: holistic pairs fold aliases onto originals
// and deduplicate, aggregated attributes count once each.
func recountDemanded(ctx Context) int {
	holistic := make(map[model.Pair]struct{})
	aggAttrs := make(map[model.AttrID]struct{})
	for _, p := range ctx.Demand.Pairs() {
		orig := ctx.resolve(p.Attr)
		if ctx.Spec.KindOf(orig) != agg.Holistic {
			aggAttrs[orig] = struct{}{}
			continue
		}
		holistic[model.Pair{Node: p.Node, Attr: orig}] = struct{}{}
	}
	return len(holistic) + len(aggAttrs)
}
