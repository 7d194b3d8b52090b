// Package remo is a resource-aware application state monitoring planner
// and emulation toolkit, reproducing "REMO: Resource-Aware Application
// State Monitoring for Large-Scale Distributed Systems" (Meng, Kashyap,
// Venkatramani, Liu — ICDCS 2009; journal version in IEEE TPDS 2012).
//
// Monitoring tasks collect attribute values from sets of nodes. REMO
// organizes the nodes into a forest of collection trees that maximizes
// the number of node-attribute pairs delivered to a central collector
// without exceeding any node's capacity, under the message cost model
// cost(msg) = C + a·x (a fixed per-message overhead plus a per-value
// payload cost).
//
// Typical use:
//
//	sys, _ := remo.NewSystem(remo.SystemSpec{...})
//	p := remo.NewPlanner(sys)
//	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: nodes})
//	plan, _ := p.Plan()
//	fmt.Println(plan.PercentCollected())
//	mon, _ := p.StartMonitor(remo.MonitorConfig{})
//	defer mon.Close()
//	_ = mon.Run(60)
//	report := mon.Report()
//
// A plan runs as a Monitor session: StartMonitor boots on the forest the
// last Plan returned while the task set is unchanged. Sessions are
// self-healing: under fault injection (MonitorConfig.Chaos) or an
// explicit FailurePolicy, a collector-side failure detector declares
// silent nodes dead, the topology is automatically repaired around them,
// and recovered nodes are reintegrated — see Monitor and RepairEvent.
//
// The package is a facade over the internal packages; the experiment
// harness reproducing the paper's figures lives in cmd/remo-bench.
package remo

import (
	"fmt"
	"slices"

	"remo/internal/agg"
	"remo/internal/alloc"
	"remo/internal/core"
	"remo/internal/cost"
	"remo/internal/freq"
	"remo/internal/model"
	"remo/internal/partition"
	"remo/internal/predict"
	"remo/internal/reliability"
	"remo/internal/task"
	"remo/internal/tree"
)

// Core identifier and data types, shared with the planner internals.
type (
	// NodeID identifies a node; the central collector is CentralNode.
	NodeID = model.NodeID
	// AttrID identifies an attribute type (e.g. "cpu utilization").
	AttrID = model.AttrID
	// Pair is a node-attribute pair — the planner's unit of coverage.
	Pair = model.Pair
	// Task is a monitoring task t = (A_t, N_t).
	Task = model.Task
	// Node describes a monitoring node: capacity and local attributes.
	Node = model.Node
	// System describes the monitored deployment.
	System = model.System
	// CostModel is the per-message cost model (C and a).
	CostModel = cost.Model
)

// CentralNode is the NodeID of the central data collector.
const CentralNode = model.Central

// Tree construction schemes selectable via WithTreeScheme.
const (
	TreeAdaptive = tree.Adaptive
	TreeStar     = tree.Star
	TreeChain    = tree.Chain
	TreeMaxAvb   = tree.MaxAvb
)

// Capacity allocation schemes selectable via WithAllocScheme.
const (
	AllocOrdered      = alloc.Ordered
	AllocOnDemand     = alloc.OnDemand
	AllocUniform      = alloc.Uniform
	AllocProportional = alloc.Proportional
)

// Aggregation kinds for in-network aggregation.
const (
	AggHolistic = agg.Holistic
	AggSum      = agg.Sum
	AggMax      = agg.Max
	AggMin      = agg.Min
	AggCount    = agg.Count
	AggTopK     = agg.TopK
	AggDistinct = agg.Distinct
)

// SystemSpec declares a monitored system for NewSystem.
type SystemSpec struct {
	// CentralCapacity is the collector's per-round budget.
	CentralCapacity float64 `json:"centralCapacity"`
	// Cost is the message cost model.
	Cost CostModel `json:"cost"`
	// Nodes are the monitoring nodes.
	Nodes []Node `json:"nodes"`
}

// NewSystem validates and builds a System.
func NewSystem(spec SystemSpec) (*System, error) {
	return model.NewSystem(spec.CentralCapacity, spec.Cost, spec.Nodes)
}

// Planner plans monitoring topologies for a task set.
type Planner struct {
	sys     *System
	mgr     *task.Manager
	aggSpec *agg.Spec
	cons    *partition.Constraints
	opts    []core.Option

	// Extension state: replica aliases (SSDP reliability), update
	// frequencies (piggyback weighting) and forecast-driven dead-band
	// suppression.
	aliases   *reliability.AliasMap
	aliasNext AttrID
	freqSpec  *freq.Spec
	predSpec  *predict.Spec

	// baseline, when set, bypasses the search with a fixed partition.
	baseline Baseline

	// planned is the last searched Plan's demand and partition:
	// StartMonitor boots on that partition instead of searching again
	// while the runtime demand is identical to it (see StartMonitor).
	planned *plannedPartition

	// verifyOn arms the verification harness: planned topologies are
	// cross-checked by the independent invariant checker, and plans,
	// deployments and live monitors expose/enforce Verify.
	verifyOn bool
}

// PlannerOption configures a Planner.
type PlannerOption func(*Planner)

// WithTreeScheme selects the collection tree construction algorithm
// (default TreeAdaptive).
func WithTreeScheme(s tree.Scheme) PlannerOption {
	return func(p *Planner) { p.opts = append(p.opts, core.WithBuilder(tree.New(s))) }
}

// WithAllocScheme selects the tree-wise capacity allocation policy
// (default AllocOrdered).
func WithAllocScheme(s alloc.Scheme) PlannerOption {
	return func(p *Planner) { p.opts = append(p.opts, core.WithAlloc(alloc.New(s))) }
}

// WithAggregation declares in-network aggregation for an attribute: the
// planner exploits the payload reduction and the emulation aggregates at
// every hop. k is the bound for AggTopK and ignored otherwise.
func WithAggregation(a AttrID, kind agg.Kind, k int) PlannerOption {
	return func(p *Planner) {
		if kind == agg.TopK {
			p.aggSpec.SetTopK(a, k)
			return
		}
		p.aggSpec.SetKind(a, kind)
	}
}

// WithEvalBudget bounds how many candidate partitions the guided search
// evaluates per iteration (0 = the whole neighborhood).
func WithEvalBudget(k int) PlannerOption {
	return func(p *Planner) { p.opts = append(p.opts, core.WithEvalBudget(k)) }
}

// WithPlannerWorkers pins the planner's evaluation worker count: 0 (the
// default) sizes the pool to GOMAXPROCS, 1 forces the fully sequential
// search. Each search iteration evaluates its ranked candidates in
// rank-ordered windows of one candidate per worker and stops at the
// window holding the adopted move, so n workers launch at most n-1
// evaluations per iteration that the sequential scan would skip. The
// planned topology is identical at any setting — workers change
// wall-clock only — so this knob exists for benchmarking and for
// capping planner CPU next to latency-sensitive workloads.
func WithPlannerWorkers(n int) PlannerOption {
	return func(p *Planner) { p.opts = append(p.opts, core.WithWorkers(n)) }
}

// WithVerification arms the verification harness for everything the
// planner produces: Plan cross-checks each planned topology against an
// independent invariant checker (structure, ownership, capacity, and a
// from-scratch recount of the claimed statistics), and live Monitors
// verify every repaired topology they hot-swap in. Verification
// failures surface as errors rather than silently wrong numbers; the
// cost is one extra forest traversal per plan or repair.
func WithVerification() PlannerOption {
	return func(p *Planner) { p.verifyOn = true }
}

// Forecasting model kinds for WithPrediction / SetPredictionModel.
const (
	// PredictEWMA forecasts with an exponentially weighted moving
	// average — level only, robust on noisy series.
	PredictEWMA = predict.EWMA
	// PredictHolt forecasts with Holt's linear-trend double smoothing —
	// tracks drifting plateaus, the default.
	PredictHolt = predict.Holt
)

// WithPrediction arms forecast-driven dead-band traffic suppression
// with the given default relative error bound (e.g. 0.01 = 1%): every
// leaf and the collector run bit-identical per-pair forecasting
// replicas, a leaf whose observed value is within ε of the shared
// prediction sends a compact suppression marker instead of the value,
// and the collector imputes the predicted value — guaranteed within
// the band of the truth, since the leaf checked exactly that before
// suppressing. Markers cost no capacity; only holistic, non-aliased
// attributes are eligible. Panics on a non-positive or non-finite
// bound (program-initialization style, like MustAddTask); per-attribute
// overrides go through SetPredictionBound and SetPredictionModel.
func WithPrediction(eps float64) PlannerOption {
	return func(p *Planner) {
		s, err := predict.NewSpec(eps)
		if err != nil {
			panic(fmt.Sprintf("remo: %v", err))
		}
		p.predSpec = s
	}
}

// Baseline selects a fixed partition scheme instead of REMO's search,
// for comparisons like the paper's Figs. 5-8.
type Baseline int

// Baseline partition schemes.
const (
	// BaselineNone runs the full REMO search (default).
	BaselineNone Baseline = iota
	// BaselineSingletonSet builds one tree per attribute (PIER-style).
	BaselineSingletonSet
	// BaselineOneSet builds a single tree delivering every attribute.
	BaselineOneSet
)

// WithBaseline makes Plan evaluate the given fixed partition scheme
// instead of searching, and StartMonitor boot on that partition.
func WithBaseline(b Baseline) PlannerOption {
	return func(p *Planner) { p.baseline = b }
}

// NewPlanner returns a planner for the system.
func NewPlanner(sys *System, opts ...PlannerOption) *Planner {
	p := &Planner{
		sys:     sys,
		aggSpec: agg.NewSpec(),
	}
	p.mgr = task.NewManager(task.WithSystem(sys), task.WithAliasResolver(p.resolveAttr))
	for _, o := range opts {
		o(p)
	}
	return p
}

// AddTask registers a monitoring task. Task names must be unique;
// node-attribute pairs duplicated across tasks are collected once.
func (p *Planner) AddTask(t Task) error {
	return p.mgr.Add(t)
}

// MustAddTask is AddTask for program initialization, panicking on
// invalid tasks.
func (p *Planner) MustAddTask(t Task) {
	if err := p.mgr.Add(t); err != nil {
		panic(fmt.Sprintf("remo: %v", err))
	}
}

// UpdateTask replaces a registered task.
func (p *Planner) UpdateTask(t Task) error {
	return p.mgr.Update(t)
}

// RemoveTask deletes a registered task by name.
func (p *Planner) RemoveTask(name string) error {
	return p.mgr.Remove(name)
}

// Tasks returns the registered tasks ordered by name.
func (p *Planner) Tasks() []Task { return p.mgr.Tasks() }

// System returns the planner's system.
func (p *Planner) System() *System { return p.sys }

// DedupStats reports raw vs distinct node-attribute pairs across the
// registered tasks (the task manager's duplicate elimination).
func (p *Planner) DedupStats() (raw, distinct int) { return p.mgr.DedupStats() }

// Plan runs the REMO planning algorithm over the registered tasks,
// applying any declared update frequencies (piggyback weights) and
// reliability constraints.
func (p *Planner) Plan() (*Plan, error) {
	d := p.currentDemand()
	// Prediction discounts are planner-side only: the search packs
	// against rate-scaled weights (identity until transmit rates are
	// recorded via SetPredictionRate or ObserveRate feedback), while the
	// runtime demand keeps full weights — suppression elides values
	// inside a round, it never stretches reporting periods.
	dPlan := d
	if p.predSpec != nil {
		dPlan = p.predSpec.Apply(d)
	}
	planner := p.corePlanner()
	var res core.Result
	if p.baseline != BaselineNone {
		res = planner.PlanPartition(p.sys, dPlan, p.seedFor(dPlan))
	} else {
		res = planner.Plan(p.sys, dPlan)
	}
	pl := &Plan{
		sys:        p.sys,
		demand:     d,
		planDemand: dPlan,
		aggSpec:    p.aggSpec,
		resolve:    p.resolveAttr,
		builder:    planner.Builder(),
		res:        res,
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("remo: planned topology failed validation: %w", err)
	}
	if p.verifyOn {
		if err := pl.Verify(); err != nil {
			return nil, fmt.Errorf("remo: planned topology failed verification: %w", err)
		}
	}
	if p.baseline == BaselineNone {
		p.planned = &plannedPartition{demand: dPlan, sets: res.Partition}
	}
	return pl, nil
}

// plannedPartition is a searched plan's partition and the demand it was
// searched for.
type plannedPartition struct {
	demand *task.Demand
	sets   []model.AttrSet
}

// seedFor is the partition a session boots on for demand d: a
// baseline's fixed partition over d's attributes (the one Plan
// evaluates), or the last searched plan's partition when d is exactly
// the demand it was searched for (no task changed since, and no
// prediction discount); nil means search.
func (p *Planner) seedFor(d *task.Demand) []model.AttrSet {
	switch p.baseline {
	case BaselineSingletonSet:
		return partition.Singleton(d.Universe())
	case BaselineOneSet:
		return partition.OneSet(d.Universe())
	}
	if p.planned == nil || !task.Diff(p.planned.demand, d).AffectedAttrs.Empty() {
		return nil
	}
	return slices.Clone(p.planned.sets)
}

// demandFor is the one tasks → demand path: pairs deduplicated across
// tasks with replica aliases resolved, then weighted by the declared
// update frequencies.
func (p *Planner) demandFor(tasks []Task) (*task.Demand, error) {
	mgr := task.NewManager(task.WithSystem(p.sys), task.WithAliasResolver(p.resolveAttr))
	for _, t := range tasks {
		if err := mgr.Add(t); err != nil {
			return nil, fmt.Errorf("remo: %w", err)
		}
	}
	return p.weighted(mgr.Demand()), nil
}

// currentDemand is the demand of the planner's registered tasks.
func (p *Planner) currentDemand() *task.Demand { return p.weighted(p.mgr.Demand()) }

// weighted applies the planner's frequency weighting to a demand.
func (p *Planner) weighted(d *task.Demand) *task.Demand {
	if p.freqSpec != nil {
		d = p.freqSpec.Apply(d)
	}
	return d
}

// corePlanner builds the internal planner with this facade's options.
func (p *Planner) corePlanner() *core.Planner {
	opts := append([]core.Option{core.WithSpec(p.aggSpec)}, p.opts...)
	cons := p.cons
	if p.freqSpec != nil {
		if fc := p.freqSpec.Constraints(p.mgr.Demand()); fc != nil {
			merged := partition.NewConstraints()
			merged.Merge(cons)
			merged.Merge(fc)
			cons = merged
		}
	}
	if cons != nil {
		opts = append(opts, core.WithConstraints(cons))
	}
	return core.NewPlanner(opts...)
}
