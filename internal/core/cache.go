package core

import (
	"math"
	"math/bits"
	"sort"
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
// move, so four kinds of state recur verbatim between evaluations:
//
//   - per attribute set: its participants, their global node indices
//     and local weights, and its demanded pair count,
//   - per attribute: the nodes demanding it, as a bitset over the same
//     global node indices (what the neighborhood ranking counts),
//   - whole constructed trees, whenever a set's participants AND its
//     capacity budget are unchanged (the common case under ORDERED
//     allocation: trees built before the first changed set see the
//     exact same budgets and are bit-identical rebuilds).
//
// The cache is shared by the concurrent candidate evaluators of one
// search, so every map is guarded: sets and bitsets by mu, the tree memo
// by treeMu. A memoized tree is shared by every forest the search
// builds from it; nothing inside the search modifies a tree, and a
// forest is cloned once when it leaves the search (Plan, PlanFrom,
// Evaluate, Replanner.Update), so adaptation or repair code that
// mutates a returned forest cannot corrupt the memo.
//
// The tree memo is bounded: long-lived churn sessions replan against
// the same cache, so it uses clock (second-chance) eviction once it
// reaches memoCap entries. Incremental replanning additionally retires
// entries by attribute neighborhood (invalidate) and repoints the cache
// at mutated demands (rebind).
type evalCache struct {
	d *task.Demand

	mu   sync.RWMutex
	sets map[string]*setEntry
	// nodeIdx is the global dense node order, first seen first; it only
	// grows, so indices stay valid across invalidate and rebind. ids
	// inverts it, and asc lists every index by ascending node ID: it is
	// replaced, never modified, when a node is first seen.
	nodeIdx map[model.NodeID]int
	ids     []model.NodeID
	asc     []int
	// attrBits are the per-attribute node bitsets, nil until first use
	// and after invalidate.
	attrBits map[model.AttrID][]uint64

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

// setEntry is what the cache knows about one attribute set; it is
// immutable once published.
type setEntry struct {
	set model.AttrSet
	key string
	// parts are the participants, ascending; idx their global node
	// indices, caps their capacities and weights their local demand
	// weights, index-aligned.
	parts   []model.NodeID
	idx     []int
	caps    []float64
	weights []float64
	// pairs is the set's demanded pair count.
	pairs int
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
		d:       d,
		sets:    make(map[string]*setEntry),
		nodeIdx: make(map[model.NodeID]int),
		trees:   make(map[treeKey]*cachedBuild),
		memoCap: memoCap,
	}
}

// entry returns the set's cached entry, building it on first use. sys
// supplies the capacities; it is fixed for the cache's lifetime.
func (c *evalCache) entry(sys *model.System, set model.AttrSet) *setEntry {
	key := set.Key()
	c.mu.RLock()
	e, ok := c.sets[key]
	c.mu.RUnlock()
	if ok {
		return e
	}
	e = &setEntry{set: set, key: key, parts: c.d.Participants(set)}
	e.weights = make([]float64, len(e.parts))
	e.caps = make([]float64, len(e.parts))
	for i, n := range e.parts {
		e.caps[i] = sys.Capacity(n)
		// One pass for both: the weight sums in attribute order, as
		// Demand.LocalWeight does.
		c.d.VisitLocal(n, set, func(_ int, w float64) {
			e.weights[i] += w
			e.pairs++
		})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.sets[key]; ok {
		return prev // keep the first insert so callers share one entry
	}
	e.idx = make([]int, len(e.parts))
	for i, n := range e.parts {
		e.idx[i] = c.indexLocked(n)
	}
	c.sets[key] = e
	return e
}

// indexLocked returns n's global node index, assigning the next one on
// first sight. Caller holds mu for writing.
func (c *evalCache) indexLocked(n model.NodeID) int {
	i, ok := c.nodeIdx[n]
	if !ok {
		i = len(c.nodeIdx)
		c.nodeIdx[n] = i
		c.ids = append(c.ids, n)
		pos := sort.Search(len(c.asc), func(j int) bool { return c.ids[c.asc[j]] > n })
		asc := make([]int, 0, len(c.asc)+1)
		c.asc = append(append(append(asc, c.asc[:pos]...), i), c.asc[pos:]...)
	}
	return i
}

// nodeOrder returns every global node index assigned so far, ordered by
// node ID. The slice is shared: read only.
func (c *evalCache) nodeOrder() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.asc
}

// bits returns, per attribute, the nodes demanding it as a bitset over
// the global node indices, built for every attribute at once on first
// use after an invalidation. The map is never written once returned.
func (c *evalCache) bits() map[model.AttrID][]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attrBits == nil {
		c.attrBits = c.d.AttrNodeBits(c.indexLocked)
	}
	return c.attrBits
}

// treeKey identifies one tree-construction problem: the attribute set
// plus a fingerprint of the per-participant capacity budgets and the
// collector budget. Everything else a builder sees (system, demand,
// spec, builder options) is fixed for the cache's lifetime.
type treeKey struct {
	attrs string
	hash  uint64
}

// cachedBuild is one memoized construction result. tree is shared with
// the forests of the search that built or reused it; used (index-aligned
// with the set's participants) and centralUsed are the build's capacity
// charges. Nothing writes any of them after storeTree. stats is the
// tree's profile and usage its Usage on the set's participants, both
// computed once by the first evaluation that needs them. attrs is the
// delivered attribute set (for neighborhood invalidation); ref is the
// clock sweep's second-chance reference bit, set on every hit.
type cachedBuild struct {
	tree        *plan.Tree
	used        []float64
	centralUsed float64
	statsOnce   sync.Once
	stats       plan.TreeStats
	usage       []float64
	attrs       model.AttrSet
	ref         atomic.Bool
}

// keyMix folds one 64-bit word into the budget fingerprint: a
// multiply-rotate round (xxHash64's), one step per word rather than one
// per byte.
func keyMix(h, v uint64) uint64 {
	const prime1, prime2 = 11400714785074694791, 14029467366897019727
	h ^= bits.RotateLeft64(v*prime2, 31) * prime1
	return bits.RotateLeft64(h, 27)*prime1 + 0x85ebca77c2b2ae63
}

// quantBudget quantizes a capacity budget to 1e-9 cost units, folding
// float noise far below every tolerance the planner uses (builders use
// capEps, validation 1e-6) without ever conflating genuinely different
// budgets.
func quantBudget(v float64) uint64 {
	return uint64(int64(math.Round(v * 1e9)))
}

// buildTreeKey fingerprints a construction problem: the set's key, its
// participants in their canonical (ascending) order and their budgets,
// index-aligned, plus the collector's.
func buildTreeKey(attrs string, nodes []model.NodeID, avail []float64, centralAvail float64) treeKey {
	h := uint64(len(nodes))
	for i, n := range nodes {
		h = keyMix(h, uint64(n))
		h = keyMix(h, quantBudget(avail[i]))
	}
	h = keyMix(h, quantBudget(centralAvail))
	return treeKey{attrs: attrs, hash: h}
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
// now memoized there: the first one stored under key, whose tree the
// caller should use so that equal builds share one tree. At memoCap the
// insert reclaims a slot via the clock sweep instead of growing.
func (c *evalCache) storeTree(key treeKey, attrs model.AttrSet, r tree.Result) *cachedBuild {
	c.builds.Add(1)
	cb := &cachedBuild{tree: r.Tree, used: r.Used, centralUsed: r.CentralUsed, attrs: attrs}
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

// treeStats returns the cached tree's profile under demand d and its
// usage aligned with the set's participants parts, computing both on
// first use. Every evaluation that hits the entry shares them, so
// callers must not modify them.
func (cb *cachedBuild) treeStats(d *task.Demand, sys *model.System, spec *agg.Spec, parts []model.NodeID) (plan.TreeStats, []float64) {
	cb.statsOnce.Do(func() {
		if cb.tree != nil {
			cb.stats = plan.ComputeTreeStats(cb.tree, d, sys, spec)
			cb.usage = alignUsage(cb.stats, parts)
		}
	})
	return cb.stats, cb.usage
}

// alignUsage returns ts.Usage index-aligned with parts, 0 for a
// participant outside the tree. A tree's members are participants of
// its set, so nothing in ts.Usage is left out.
func alignUsage(ts plan.TreeStats, parts []model.NodeID) []float64 {
	usage := make([]float64, len(parts))
	found := 0
	for i, n := range parts {
		if u, ok := ts.Usage[n]; ok {
			usage[i] = u
			found++
		}
	}
	if found != len(ts.Usage) {
		panic("core: a tree member is not a participant of its set")
	}
	return usage
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
// the dirty neighborhood: memoized tree builds, the entries of
// intersecting sets, and the attribute bitsets (rebuilt on next use). Incremental replanning calls
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
	for key, e := range c.sets {
		if e.set.IntersectsAny(dirty) {
			delete(c.sets, key)
		}
	}
	c.attrBits = nil
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
