// Package adapt implements REMO's runtime topology adaptation (§4):
// keeping the monitoring topology efficient as monitoring tasks are
// added, modified and removed, while balancing topology quality against
// the cost of reconfiguring the overlay.
//
// Four schemes are provided, matching the paper's Fig. 9 comparison:
//
//   - DIRECT-APPLY (D-A): apply task changes with minimal topology
//     change — rebuild only the trees whose attribute sets are affected,
//     never re-partition.
//   - REBUILD: rerun the full REMO planner from scratch on every change.
//   - NO-THROTTLE: D-A base topology plus a bounded local search over
//     merge/split operations involving the reconstructed trees.
//   - ADAPTIVE: NO-THROTTLE plus cost-benefit throttling — an operation
//     is applied only when its reconfiguration cost is justified by the
//     topology-efficiency gain and the trees' update history.
//
// A fifth scheme, INCREMENTAL, goes beyond the paper: it keeps the full
// guided search's plan quality by re-running the search on every
// change, but scoped to the dirty attribute neighborhood and seeded
// from the current partition (core.Replanner), falling back to the full
// search when the scoped result regresses.
package adapt

import (
	"time"

	"remo/internal/core"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
)

// Scheme names an adaptation policy.
type Scheme string

// Available schemes.
const (
	DirectApply Scheme = "D-A"
	Rebuild     Scheme = "REBUILD"
	NoThrottle  Scheme = "NO-THROTTLE"
	Adaptive    Scheme = "ADAPTIVE"
	// Incremental replans with the guided search scoped to the change's
	// dirty neighborhood, seeded from the current partition.
	Incremental Scheme = "INCREMENTAL"
)

// Schemes lists the paper's policies in its presentation order
// (INCREMENTAL is an extension and deliberately not part of the Fig. 9
// comparison set).
func Schemes() []Scheme {
	return []Scheme{DirectApply, Rebuild, NoThrottle, Adaptive}
}

// Report summarizes one adaptation round.
type Report struct {
	// AdaptMessages is the number of overlay reconfiguration messages
	// (edges connected or disconnected) this round.
	AdaptMessages int
	// PlanTime is the wall-clock planning cost of the round.
	PlanTime time.Duration
	// Stats profiles the topology in force after the round.
	Stats plan.Stats
	// Operations counts merge/split operations applied by the searching
	// schemes.
	Operations int
	// Diff relates the round's forest to the previous one tree-by-tree
	// (kept trees survive the swap byte-for-byte).
	Diff plan.Diff
	// Replan carries the incremental replanner's telemetry; zero for
	// the other schemes.
	Replan core.ReplanStats
}

// Adaptor maintains a monitoring topology across task-set changes.
type Adaptor struct {
	scheme  Scheme
	planner *core.Planner
	sys     *model.System

	demand    *task.Demand
	forest    *plan.Forest
	partition []model.AttrSet

	// epoch is a logical clock advanced once per adaptation round; the
	// throttling threshold uses it to favor adapting rarely-touched
	// trees.
	epoch int
	// lastAdjusted maps a tree's attribute-set key to the epoch it was
	// last rebuilt or restructured.
	lastAdjusted map[string]int

	// maxOps bounds search operations per round for the searching
	// schemes.
	maxOps int

	// replan is the INCREMENTAL scheme's stateful replanner, created on
	// Init and reseeded from the forest in force by the first Propose
	// after a Rewire.
	replan *core.Replanner
	// aside is the INCREMENTAL replanner a repair set aside (Rewire),
	// holding the plan in force before the failure: a Propose back to
	// its exact demand restores that plan instead of searching. nil when
	// nothing is aside.
	aside *core.Replanner
	// last is the most recent Init, InitPartition or Commit's report.
	last Report
}

// New returns an adaptor using the given policy. The planner supplies
// the tree builder, allocation policy and aggregation spec shared by all
// schemes.
func New(scheme Scheme, planner *core.Planner, sys *model.System) *Adaptor {
	return &Adaptor{
		scheme:       scheme,
		planner:      planner,
		sys:          sys,
		demand:       task.NewDemand(),
		forest:       plan.NewForest(),
		lastAdjusted: make(map[string]int),
		maxOps:       32,
	}
}

// Scheme returns the adaptor's policy.
func (a *Adaptor) Scheme() Scheme { return a.scheme }

// Forest returns the topology currently in force.
func (a *Adaptor) Forest() *plan.Forest { return a.forest }

// Partition returns the attribute partition currently in force.
func (a *Adaptor) Partition() []model.AttrSet {
	return append([]model.AttrSet(nil), a.partition...)
}

// Demand returns the demand currently planned for.
func (a *Adaptor) Demand() *task.Demand { return a.demand }

// Last returns the report of the most recent Init, InitPartition or
// Commit.
func (a *Adaptor) Last() Report { return a.last }

// Init plans the initial topology with the full REMO algorithm;
// subsequent changes go through Apply.
func (a *Adaptor) Init(d *task.Demand) Report {
	return a.initWith(d, func() core.Result {
		if a.scheme == Incremental {
			a.replan = core.NewReplanner(a.planner, a.sys, d)
			return a.replan.Current()
		}
		return a.planner.Plan(a.sys, d)
	})
}

// InitPartition installs the deterministic evaluation of a known
// partition instead of searching — cold resume uses this to rebuild the
// journaled topology's exact forest (the evaluation is deterministic in
// system, demand and partition).
func (a *Adaptor) InitPartition(d *task.Demand, sets []model.AttrSet) Report {
	return a.initWith(d, func() core.Result {
		res := a.planner.PlanPartition(a.sys, d, sets)
		if a.scheme == Incremental {
			a.replan = core.NewReplannerFrom(a.planner, a.sys, d, res)
		}
		return res
	})
}

// initWith commits the initial plan produced by build.
func (a *Adaptor) initWith(d *task.Demand, build func() core.Result) Report {
	start := time.Now()
	base := a.forest
	res := build()
	msgs := plan.DiffEdges(base, res.Forest)
	a.demand = d.Clone()
	a.forest = res.Forest
	a.partition = res.Partition
	a.aside = nil
	a.epoch++
	for _, t := range a.forest.Trees {
		a.lastAdjusted[t.Attrs.Key()] = a.epoch
	}
	a.last = Report{
		AdaptMessages: msgs,
		PlanTime:      time.Since(start),
		Stats:         res.Stats,
		Diff:          plan.DiffForests(base, res.Forest),
	}
	return a.last
}

// Proposal is an adaptation planned but not yet in force: Propose
// builds it from the adaptor's state, Commit installs it.
type Proposal struct {
	demand    *task.Demand
	forest    *plan.Forest
	partition []model.AttrSet
	// touched lists the tree keys whose adjustment timestamps advance on
	// commit; nil advances every tree (full replans).
	touched map[string]struct{}
	// replan and aside are the INCREMENTAL replanners Commit adopts: the
	// one holding the proposed plan, and the one kept aside (nil drops
	// it).
	replan, aside *core.Replanner
	rep           Report
}

// Apply adapts the topology to a new demand according to the policy.
func (a *Adaptor) Apply(newDemand *task.Demand) Report {
	return a.Commit(a.Propose(newDemand, nil))
}

// Propose plans the adaptation to a new demand without changing the
// topology in force: it only reads the adaptor's plan, partition and
// adjustment history, and advances nothing but the incremental
// replanners' own state. So readers of Forest, Demand and Partition may
// run beside it; another Propose, Commit, Rewire or Init may not.
//
// When a repair set a plan aside (INCREMENTAL only), a newDemand
// identical to the set-aside plan's demand — a recovery back to where
// the failure struck — proposes that plan with zero evaluations. Any
// other proposal drops it on commit, unless carry is non-nil: then the
// set-aside plan is first carried forward to carry (the task set's
// demand with no node pruned, which is what a full recovery returns
// to) by a scoped update, and stays aside.
func (a *Adaptor) Propose(newDemand, carry *task.Demand) Proposal {
	start := time.Now()
	p := Proposal{demand: newDemand}
	switch a.scheme {
	case Incremental:
		res, rstats := a.proposeIncremental(&p, carry)
		p.forest, p.partition = res.Forest, res.Partition
		p.rep.Replan = rstats
		p.rep.Stats = res.Stats
		p.touched = make(map[string]struct{}, len(rstats.Diff.Rebuilt))
		for _, k := range rstats.Diff.Rebuilt {
			p.touched[k] = struct{}{}
		}
	case DirectApply:
		p.forest, p.partition, _ = a.directApply(newDemand)
		p.rep.Stats = p.forest.ComputeStats(newDemand, a.sys, a.planner.Spec())
	case NoThrottle, Adaptive:
		forest, sets, rebuilt := a.directApply(newDemand)
		p.forest, p.partition, p.rep.Operations = a.optimize(newDemand, forest, sets, rebuilt, a.scheme == Adaptive)
		p.rep.Stats = p.forest.ComputeStats(newDemand, a.sys, a.planner.Spec())
		p.touched = rebuilt
	default: // Rebuild
		res := a.planner.Plan(a.sys, newDemand)
		p.forest, p.partition = res.Forest, res.Partition
		p.rep.Stats = res.Stats
	}
	p.rep.AdaptMessages = plan.DiffEdges(a.forest, p.forest)
	p.rep.PlanTime = time.Since(start)
	return p
}

// proposeIncremental plans p.demand with the INCREMENTAL replanners.
func (a *Adaptor) proposeIncremental(p *Proposal, carry *task.Demand) (core.Result, core.ReplanStats) {
	if a.aside != nil && task.Diff(a.aside.Demand(), p.demand).AffectedAttrs.Empty() {
		// Back to the set-aside plan's demand: that plan is this
		// demand's, searched and memoized before the repair.
		p.replan = a.aside
		res := a.aside.Current()
		return res, core.ReplanStats{
			Incremental: true,
			TotalSets:   len(res.Partition),
			Diff:        plan.DiffForests(a.forest, res.Forest),
		}
	}
	p.replan = a.replan
	if p.replan == nil {
		// The first proposal since a repair plans from the repaired
		// forest; the memo of the replanner set aside describes trees
		// the repair may have rewired.
		p.replan = core.NewReplannerFrom(a.planner, a.sys, a.demand, core.Result{
			Forest:    a.forest,
			Stats:     a.forest.ComputeStats(a.demand, a.sys, a.planner.Spec()),
			Partition: a.Partition(),
		})
	}
	res, rstats := p.replan.Update(p.demand)
	if a.aside != nil && carry != nil {
		a.aside.Update(carry)
		p.aside = a.aside
	}
	return res, rstats
}

// Commit installs a proposal as a new adaptation epoch and reports the
// round. The proposal must be the last one Propose returned, with
// nothing committed or rewired since.
func (a *Adaptor) Commit(p Proposal) Report {
	a.epoch++
	base := a.forest
	a.install(p.demand, p.forest, p.partition, p.touched)
	a.replan, a.aside = p.replan, p.aside
	a.last = p.rep
	a.last.Diff = plan.DiffForests(base, a.forest)
	return a.last
}

// Rewire commits an externally built topology (e.g. a failure repair)
// as a new adaptation epoch. Unlike Apply it does not replan: the given
// forest is installed as-is, so the adaptor's incremental bookkeeping
// stays consistent with what the runtime actually deployed. The
// incremental replanner and the plan it holds are set aside, unless a
// plan already is (a second failure keeps the older one), so a recovery
// can restore it; the next Propose replans from the installed forest.
func (a *Adaptor) Rewire(d *task.Demand, forest *plan.Forest) {
	a.epoch++
	a.install(d, forest, forest.Partition(), nil)
	if a.aside == nil {
		a.aside = a.replan
	}
	a.replan = nil
}

// install commits a new topology. touched lists tree keys whose
// adjustment timestamps should advance; nil advances every tree (full
// replans).
func (a *Adaptor) install(d *task.Demand, forest *plan.Forest, sets []model.AttrSet, touched map[string]struct{}) {
	a.demand = d.Clone()
	a.forest = forest
	a.partition = sets

	present := make(map[string]struct{}, len(forest.Trees))
	for _, t := range forest.Trees {
		k := t.Attrs.Key()
		present[k] = struct{}{}
		if _, seen := a.lastAdjusted[k]; !seen {
			a.lastAdjusted[k] = a.epoch
			continue
		}
		if touched == nil {
			a.lastAdjusted[k] = a.epoch
		} else if _, hit := touched[k]; hit {
			a.lastAdjusted[k] = a.epoch
		}
	}
	for k := range a.lastAdjusted {
		if _, ok := present[k]; !ok {
			delete(a.lastAdjusted, k)
		}
	}
}
