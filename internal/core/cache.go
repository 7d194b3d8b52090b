package core

import (
	"math"
	"sync"
	"sync/atomic"

	"remo/internal/agg"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
	"remo/internal/tree"
)

// evalCache memoizes work shared across the many candidate evaluations
// of one search. The guided search changes only one or two sets per
// move, so three kinds of state recur verbatim between evaluations:
//
//   - participant lists of unchanged attribute sets,
//   - local-weight maps of unchanged attribute sets,
//   - whole constructed trees, whenever a set's participants AND its
//     capacity budget are unchanged (the common case under ORDERED
//     allocation: trees built before the first changed set see the
//     exact same avail map and are bit-identical rebuilds).
//
// The cache is shared by the concurrent candidate evaluators of one
// search, so every map is guarded: participants/weights by mu, the
// tree memo by treeMu. Cached trees are never aliased by callers — a
// clone is stored on insert and a clone is handed out on every hit —
// so a forest returned to (and possibly mutated by) adaptation or
// repair code cannot corrupt the memo.
//
// The tree memo is bounded: long-lived churn sessions replan against
// the same cache, so it uses clock (second-chance) eviction once it
// reaches memoCap entries. Incremental replanning additionally retires
// entries by attribute neighborhood (invalidate) and repoints the cache
// at mutated demands (rebind).
type evalCache struct {
	d *task.Demand

	mu           sync.RWMutex
	participants map[string][]model.NodeID
	weights      map[string]map[model.NodeID]float64
	// keySets maps a participants/weights key back to its attribute set
	// so invalidate can match entries against a dirty neighborhood.
	keySets map[string]model.AttrSet

	treeMu sync.RWMutex
	trees  map[treeKey]*cachedBuild
	// memoCap bounds len(trees); 0 means unbounded. ring and hand are
	// the clock sweep over insertion slots: ring holds one key per slot
	// (possibly stale after invalidation), hand is the next sweep
	// position.
	memoCap int
	ring    []treeKey
	hand    int
	// evictions counts capacity evictions (telemetry, guarded by treeMu).
	evictions int64

	// builds and reuses count tree constructions vs memo hits (search
	// telemetry, surfaced as Result.TreeBuilds / Result.TreeReuses).
	builds, reuses atomic.Int64
}

// defaultTreeMemoCap bounds the tree memo when the planner does not
// set an explicit cap. At ~1-2 KiB per cached build this keeps a
// long-lived replanner under a few MiB.
const defaultTreeMemoCap = 4096

func newEvalCache(d *task.Demand, memoCap int) *evalCache {
	if memoCap == 0 {
		memoCap = defaultTreeMemoCap
	}
	if memoCap < 0 {
		memoCap = 0 // unbounded
	}
	return &evalCache{
		d:            d,
		participants: make(map[string][]model.NodeID),
		weights:      make(map[string]map[model.NodeID]float64),
		keySets:      make(map[string]model.AttrSet),
		trees:        make(map[treeKey]*cachedBuild),
		memoCap:      memoCap,
	}
}

func (c *evalCache) participantsOf(set model.AttrSet) []model.NodeID {
	key := set.Key()
	c.mu.RLock()
	parts, ok := c.participants[key]
	c.mu.RUnlock()
	if ok {
		return parts
	}
	parts = c.d.Participants(set)
	c.mu.Lock()
	if prev, ok := c.participants[key]; ok {
		parts = prev // keep the first insert so callers share one slice
	} else {
		c.participants[key] = parts
		c.keySets[key] = set
	}
	c.mu.Unlock()
	return parts
}

func (c *evalCache) weightsOf(set model.AttrSet) map[model.NodeID]float64 {
	key := set.Key()
	c.mu.RLock()
	w, ok := c.weights[key]
	c.mu.RUnlock()
	if ok {
		return w
	}
	parts := c.participantsOf(set)
	w = make(map[model.NodeID]float64, len(parts))
	for _, n := range parts {
		w[n] = c.d.LocalWeight(n, set)
	}
	c.mu.Lock()
	if prev, ok := c.weights[key]; ok {
		w = prev
	} else {
		c.weights[key] = w
	}
	c.mu.Unlock()
	return w
}

// treeKey identifies one tree-construction problem: the attribute set
// plus a fingerprint of the per-participant capacity budgets and the
// collector budget. Everything else a builder sees (system, demand,
// spec, builder options) is fixed for the cache's lifetime.
type treeKey struct {
	attrs string
	hash  uint64
}

// cachedBuild is one memoized construction result. tree is a private
// clone; used and centralUsed are the build's capacity charges, read
// (never written) by evaluate. stats is the tree's profile, computed
// once by the first evaluation that needs it. attrs is the delivered
// attribute set (for neighborhood invalidation); ref is the clock
// sweep's second-chance reference bit, set on every hit.
type cachedBuild struct {
	tree        *plan.Tree
	used        map[model.NodeID]float64
	centralUsed float64
	statsOnce   sync.Once
	stats       plan.TreeStats
	attrs       model.AttrSet
	ref         atomic.Bool
}

// FNV-1a constants for the budget fingerprint.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// quantBudget quantizes a capacity budget to 1e-9 cost units, folding
// float noise far below every tolerance the planner uses (builders use
// capEps, validation 1e-6) without ever conflating genuinely different
// budgets.
func quantBudget(v float64) uint64 {
	return uint64(int64(math.Round(v * 1e9)))
}

// buildTreeKey fingerprints a construction problem. nodes must be the
// set's participants in their canonical (ascending) order so the hash
// is deterministic.
func buildTreeKey(attrs model.AttrSet, nodes []model.NodeID, avail map[model.NodeID]float64, centralAvail float64) treeKey {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(len(nodes)))
	for _, n := range nodes {
		h = fnvMix(h, uint64(n))
		h = fnvMix(h, quantBudget(avail[n]))
	}
	h = fnvMix(h, quantBudget(centralAvail))
	return treeKey{attrs: attrs.Key(), hash: h}
}

// lookupTree returns the memoized build for key, if any, marking the
// entry recently used for the clock sweep.
func (c *evalCache) lookupTree(key treeKey) (*cachedBuild, bool) {
	c.treeMu.RLock()
	cb, ok := c.trees[key]
	c.treeMu.RUnlock()
	if ok {
		cb.ref.Store(true)
		c.reuses.Add(1)
	}
	return cb, ok
}

// storeTree memoizes a build result under key and returns the entry
// now memoized there. The tree is cloned on insert (copy-on-insert) so
// the caller's tree — which joins a forest the planner hands to callers
// — never aliases cache state. At memoCap the insert reclaims a slot via
// the clock sweep instead of growing.
func (c *evalCache) storeTree(key treeKey, attrs model.AttrSet, r tree.Result) *cachedBuild {
	c.builds.Add(1)
	cb := &cachedBuild{used: r.Used, centralUsed: r.CentralUsed, attrs: attrs}
	if r.Tree != nil {
		cb.tree = r.Tree.Clone()
	}
	c.treeMu.Lock()
	defer c.treeMu.Unlock()
	if prev, dup := c.trees[key]; dup {
		return prev
	}
	if c.memoCap > 0 {
		if len(c.ring) >= c.memoCap {
			c.ring[c.reclaimSlot()] = key
		} else {
			c.ring = append(c.ring, key)
		}
	}
	c.trees[key] = cb
	return cb
}

// treeStats returns the cached tree's profile under demand d, computing
// it on first use. Every evaluation that hits the entry shares it, so
// callers must not modify it.
func (cb *cachedBuild) treeStats(d *task.Demand, sys *model.System, spec *agg.Spec) plan.TreeStats {
	cb.statsOnce.Do(func() {
		if cb.tree != nil {
			cb.stats = plan.ComputeTreeStats(cb.tree, d, sys, spec)
		}
	})
	return cb.stats
}

// reclaimSlot runs the clock (second-chance) sweep and returns a free
// ring slot, evicting at most one live entry. Slots whose key was
// already dropped by invalidate are reclaimed without eviction; live
// entries get a second chance through their ref bit, so the sweep
// terminates within two passes. Caller holds treeMu.
func (c *evalCache) reclaimSlot() int {
	for {
		slot := c.hand
		c.hand = (c.hand + 1) % len(c.ring)
		key := c.ring[slot]
		cb, live := c.trees[key]
		if !live {
			return slot
		}
		if cb.ref.CompareAndSwap(true, false) {
			continue
		}
		delete(c.trees, key)
		c.evictions++
		return slot
	}
}

// invalidate drops every cached artifact whose attribute set intersects
// the dirty neighborhood: memoized tree builds plus the participant and
// weight entries of intersecting sets. Incremental replanning calls
// this between updates (no evaluators run concurrently), after which
// the surviving entries are exactly the ones the mutated demand leaves
// unchanged.
func (c *evalCache) invalidate(dirty model.AttrSet) {
	if dirty.Empty() {
		return
	}
	c.treeMu.Lock()
	for key, cb := range c.trees {
		if cb.attrs.IntersectsAny(dirty) {
			delete(c.trees, key)
		}
	}
	c.treeMu.Unlock()
	c.mu.Lock()
	for key, set := range c.keySets {
		if set.IntersectsAny(dirty) {
			delete(c.participants, key)
			delete(c.weights, key)
			delete(c.keySets, key)
		}
	}
	c.mu.Unlock()
}

// rebind points the cache at a mutated demand. The caller must have
// invalidated every attribute the mutation touches first; entries for
// untouched sets are identical under the new demand by construction.
func (c *evalCache) rebind(d *task.Demand) { c.d = d }

// memoLen reports the live tree-memo size (tests and telemetry).
func (c *evalCache) memoLen() int {
	c.treeMu.RLock()
	defer c.treeMu.RUnlock()
	return len(c.trees)
}

// evicted reports capacity evictions so far (tests and telemetry).
func (c *evalCache) evicted() int64 {
	c.treeMu.RLock()
	defer c.treeMu.RUnlock()
	return c.evictions
}
