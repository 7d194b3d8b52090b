package core

import (
	"sort"

	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
)

// ReplanStats is one incremental update's telemetry.
type ReplanStats struct {
	// Incremental reports that the adopted plan came out of the scoped
	// neighborhood search; false means the update ran the full guided
	// search (because the neighborhood grew too large, or the scoped
	// result regressed and fell back).
	Incremental bool
	// FellBack reports that a scoped search ran but its result was
	// discarded for a full replan (coverage regressed past the
	// configured tolerance).
	FellBack bool
	// DirtySets and TotalSets size the dirty neighborhood against the
	// reshaped partition the scoped search started from.
	DirtySets int
	// TotalSets is the reshaped partition's set count (see DirtySets).
	TotalSets int
	// Diff relates the adopted forest to the previous one tree-by-tree.
	Diff plan.Diff
	// Evaluations, TreeBuilds and TreeReuses aggregate the update's
	// search telemetry (full-replan work included when falling back).
	Evaluations int
	// TreeBuilds counts tree constructions this update performed.
	TreeBuilds int
	// TreeReuses counts tree-build memo hits this update scored.
	TreeReuses int
}

// ReplanOption tunes a Replanner.
type ReplanOption func(*Replanner)

// WithReplanFallback sets the coverage tolerance of the post-search
// fallback check: the scoped result is discarded for a full replan when
// its coverage fraction drops more than tol below what the previous
// forest still collects under the new demand (the same demand on both
// sides — mutations change the denominator, so the old plan's recorded
// coverage is not a comparable baseline). The default tolerates a 1%
// drop: the sequential capacity allocation reorders under any demand
// change, shuffling tree budgets enough to move coverage a fraction of
// a percent either way — falling back on that noise pays the full
// search for nothing. Pass 0 to fall back on any regression.
func WithReplanFallback(tol float64) ReplanOption {
	return func(r *Replanner) { r.fallbackTol = tol }
}

// defaultFallbackTol absorbs allocation-order noise (see
// WithReplanFallback).
const defaultFallbackTol = 0.01

// WithReplanDirtyLimit sets the upfront escalation threshold: when the
// dirty neighborhood exceeds this fraction of the partition the update
// skips the scoped search and replans fully (a change touching most of
// the partition gains nothing from scoping). Default 0.5.
func WithReplanDirtyLimit(frac float64) ReplanOption {
	return func(r *Replanner) { r.dirtyLimit = frac }
}

// Replanner maintains a plan across task churn, replanning
// incrementally on each demand mutation.
//
// An update diffs the new demand against the previous one, reshapes the
// current partition around the affected attributes (mutated sets shrink
// to the surviving universe, new attributes join as singletons), marks
// the dirty neighborhood — reshaped sets, sets intersecting the
// affected attributes, and congested sets whose coverage the freed or
// claimed capacity could move — and seeds the guided search from the
// reshaped partition with candidate generation restricted to that
// neighborhood. Tree builds for untouched sets come out of the
// persistent memo byte-for-byte, so an update's cost scales with the
// neighborhood, not the partition.
//
// Two guards bound the quality loss: updates whose neighborhood exceeds
// dirtyLimit of the partition escalate to the full guided search
// upfront, and a scoped result whose coverage fraction regresses more
// than fallbackTol below the previous plan's is discarded for a full
// replan.
//
// A Replanner is not safe for concurrent use.
type Replanner struct {
	p     *Planner
	sys   *model.System
	d     *task.Demand
	cur   Result
	cache *evalCache

	fallbackTol float64
	dirtyLimit  float64
	last        ReplanStats
}

// NewReplanner plans d from scratch and returns a replanner maintaining
// the result across updates.
func NewReplanner(p *Planner, sys *model.System, d *task.Demand, opts ...ReplanOption) *Replanner {
	r := newReplanner(p, sys, opts)
	r.seed(d, p.Plan(sys, d))
	return r
}

// NewReplannerFrom returns a replanner seeded with a known plan for d —
// cold resume uses this to continue from a journaled partition's
// deterministic re-evaluation instead of searching.
func NewReplannerFrom(p *Planner, sys *model.System, d *task.Demand, res Result, opts ...ReplanOption) *Replanner {
	r := newReplanner(p, sys, opts)
	r.seed(d, res)
	return r
}

func newReplanner(p *Planner, sys *model.System, opts []ReplanOption) *Replanner {
	r := &Replanner{p: p, sys: sys, dirtyLimit: 0.5, fallbackTol: defaultFallbackTol}
	for _, o := range opts {
		o(r)
	}
	return r
}

// seed installs a known-good plan as the replanner's current state.
func (r *Replanner) seed(d *task.Demand, res Result) {
	r.d = d.Clone()
	r.cur = res
	r.cache = r.p.newCache(r.d)
}

// Current returns the maintained plan.
func (r *Replanner) Current() Result { return r.cur }

// Demand returns the demand the maintained plan serves.
func (r *Replanner) Demand() *task.Demand { return r.d }

// LastStats returns the most recent update's telemetry.
func (r *Replanner) LastStats() ReplanStats { return r.last }

// Update replans for the mutated demand and returns the adopted plan
// plus the update's telemetry. The returned Result's telemetry counters
// cover this update only.
func (r *Replanner) Update(newD *task.Demand) (Result, ReplanStats) {
	change := task.Diff(r.d, newD)
	prev := r.cur
	if change.AffectedAttrs.Empty() {
		r.last = ReplanStats{
			Incremental: true,
			TotalSets:   len(prev.Partition),
			Diff:        plan.DiffForests(prev.Forest, prev.Forest),
		}
		return prev, r.last
	}

	// Fallback baseline: what the stale forest would still collect if
	// left in place under the mutated demand. Both sides of the check
	// are then fractions of the same pair count.
	stale := prev.Forest.ComputeStats(newD, r.sys, r.p.cfg.Spec)
	prevCov := coverageFrac(stale.Collected, newD.PairCount())

	// Retire every cached artifact the mutation touches, then repoint
	// the cache: surviving entries are exactly the ones the new demand
	// leaves byte-identical.
	r.cache.invalidate(change.AffectedAttrs)
	r.cache.rebind(newD)

	sets, dirty := r.reshape(newD, change, prev)

	builds0, reuses0 := r.cache.builds.Load(), r.cache.reuses.Load()
	stats := ReplanStats{DirtySets: len(dirty), TotalSets: len(sets)}

	var res Result
	if float64(len(dirty)) > r.dirtyLimit*float64(len(sets)) {
		// The change touches most of the partition — scoping would
		// explore nearly the full neighborhood anyway, minus the
		// moves that could help. Replan fully.
		res = r.p.Plan(r.sys, newD)
		stats.Evaluations = res.Evaluations
	} else {
		scope := &searchScope{dirty: dirty}
		inc := r.p.search(r.sys, newD, sets, r.cache, scope)
		stats.Evaluations = inc.Evaluations
		incCov := coverageFrac(inc.Stats.Collected, newD.PairCount())
		if incCov+1e-12 < prevCov-r.fallbackTol {
			// The scoped search lost coverage the old plan had: the
			// neighborhood was too tight for this mutation. Discard it
			// and pay for the full search.
			stats.FellBack = true
			res = r.p.Plan(r.sys, newD)
			stats.Evaluations += res.Evaluations
		} else {
			stats.Incremental = true
			res = inc.leave()
		}
	}
	// The persistent memo's counters cover scoped work; full replans
	// count their own builds internally, so take the max of both views.
	stats.TreeBuilds = int(r.cache.builds.Load() - builds0)
	stats.TreeReuses = int(r.cache.reuses.Load() - reuses0)
	if !stats.Incremental {
		stats.TreeBuilds += res.TreeBuilds
		stats.TreeReuses += res.TreeReuses
	}
	stats.Diff = plan.DiffForests(prev.Forest, res.Forest)

	r.d = newD.Clone()
	r.cache.rebind(r.d)
	r.cur = res
	r.last = stats
	return res, stats
}

// reshape adapts the previous partition to the mutated demand and marks
// the dirty neighborhood. Sets keep their attributes where possible:
// each previous set is intersected with the new universe (dropped
// entirely when empty) and newly demanded attributes join as
// singletons. Dirty are the reshaped or new sets, every set
// intersecting the affected attributes, and a bounded, gain-ranked
// handful of congested sets that could recruit a node the mutation
// freed capacity on: removals shrink demanded load only at the removed
// pairs' nodes, so a tree missing pairs can only gain from the mutation
// by placing one of those specific nodes — congested sets with no
// demand at a freed node see an unchanged feasible region and stay
// clean, and those past the budget wait for a future pass.
func (r *Replanner) reshape(newD *task.Demand, change task.Change, prev Result) ([]model.AttrSet, map[string]struct{}) {
	affected := change.AffectedAttrs
	universe := newD.Universe()
	dirty := make(map[string]struct{})
	var sets []model.AttrSet
	var covered model.AttrSet
	for _, s := range prev.Partition {
		kept := s.Intersect(universe)
		if kept.Empty() {
			continue
		}
		if kept.Len() != s.Len() || kept.IntersectsAny(affected) {
			dirty[kept.Key()] = struct{}{}
		}
		sets = append(sets, kept)
		covered = covered.Union(kept)
	}
	for _, a := range universe.Attrs() {
		if !covered.Contains(a) {
			s := model.NewAttrSet(a)
			sets = append(sets, s)
			dirty[s.Key()] = struct{}{}
		}
	}

	freed := make(map[model.NodeID]struct{})
	for _, p := range change.Removed {
		freed[p.Node] = struct{}{}
	}
	if len(freed) == 0 {
		return sets, dirty
	}
	byKey := make(map[string]*plan.Tree, len(prev.Forest.Trees))
	for _, t := range prev.Forest.Trees {
		byKey[t.Attrs.Key()] = t
	}
	// Congested sets that could recruit a freed node are opportunistic
	// additions: ranked by recruitable pair gain and admitted only up to
	// a small budget, clamped so opportunism never trips the escalation
	// gate. At scale a removal frees capacity on many nodes and almost
	// every set is congested; chasing them all is a full replan in
	// disguise, so the rest stay clean and wait for a future pass.
	type candidate struct {
		key  string
		gain int
	}
	var cands []candidate
	for _, s := range sets {
		key := s.Key()
		if _, isDirty := dirty[key]; isDirty {
			continue
		}
		t := byKey[key]
		if t == nil {
			dirty[key] = struct{}{}
			continue
		}
		members := make(map[model.NodeID]struct{}, len(t.Members()))
		collected := 0
		for _, n := range t.Members() {
			members[n] = struct{}{}
			collected += newD.LocalCount(n, s)
		}
		if newD.PairCountIn(s) <= collected {
			continue // not congested: nothing left to gain
		}
		gain := 0
		for n := range freed {
			if _, in := members[n]; !in {
				gain += newD.LocalCount(n, s)
			}
		}
		if gain > 0 {
			cands = append(cands, candidate{key: key, gain: gain})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		return cands[i].key < cands[j].key
	})
	budget := maxCongestedDirty
	if gate := int(r.dirtyLimit*float64(len(sets))) - len(dirty); gate < budget {
		budget = gate
	}
	for _, c := range cands {
		if budget <= 0 {
			break
		}
		dirty[c.key] = struct{}{}
		budget--
	}
	return sets, dirty
}

// maxCongestedDirty bounds the opportunistic congested-set additions to
// the dirty neighborhood per update.
const maxCongestedDirty = 4

// coverageFrac is the collected fraction of demanded pairs (1 when
// nothing is demanded).
func coverageFrac(collected, demanded int) float64 {
	if demanded == 0 {
		return 1
	}
	return float64(collected) / float64(demanded)
}
