// Package bench is the experiment harness: it regenerates every figure
// of the paper's evaluation (§7) as a result table. Each FigN function
// runs the corresponding sweep and returns one table per panel;
// cmd/remo-bench prints them, and bench_test.go wraps them in testing.B
// benchmarks.
//
// Absolute numbers differ from the paper (the substrate is an emulation,
// not a BlueGene/P rack); the tables are meant to reproduce the figures'
// shape: which scheme wins, by roughly what factor, and where curves
// cross. EXPERIMENTS.md records the shape comparison.
package bench

import (
	"fmt"
	"sort"

	"remo/internal/alloc"
	"remo/internal/core"
	"remo/internal/cost"
	"remo/internal/metrics"
	"remo/internal/model"
	"remo/internal/task"
	"remo/internal/tree"
	"remo/internal/workload"
)

// Options tunes experiment scale.
type Options struct {
	// Scale shrinks sweeps for quick runs: 1.0 is paper scale (200
	// nodes, ~200 tasks), 0.2 a smoke test. Values <= 0 default to 1.
	Scale float64
	// Seed decorrelates repeated runs.
	Seed int64
	// Rounds overrides the emulation length for deployment experiments
	// (0 = default 30).
	Rounds int
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// scaleInt scales n, keeping a floor of lo.
func (o Options) scaleInt(n, lo int) int {
	v := int(float64(n)*o.scale() + 0.5)
	if v < lo {
		v = lo
	}
	return v
}

func (o Options) rounds() int {
	if o.Rounds > 0 {
		return o.Rounds
	}
	return 30
}

// Experiment is a runnable figure reproduction.
type Experiment struct {
	// Name is the figure id, e.g. "fig5".
	Name string
	// Description summarizes what the figure shows.
	Description string
	// Run executes the sweep.
	Run func(Options) []*metrics.Table
}

// Registry lists all experiments in figure order.
func Registry() []Experiment {
	return []Experiment{
		{Name: "fig2", Description: "per-message overhead vs payload cost (cost-model calibration)", Run: Fig2},
		{Name: "fig5", Description: "partition schemes vs workload characteristics (% collected)", Run: Fig5},
		{Name: "fig6", Description: "partition schemes vs system characteristics (% collected)", Run: Fig6},
		{Name: "fig7", Description: "tree construction schemes (% collected)", Run: Fig7},
		{Name: "fig8", Description: "average percentage error on the emulated stream system", Run: Fig8},
		{Name: "fig9", Description: "adaptation schemes under task churn (CPU time, costs, coverage)", Run: Fig9},
		{Name: "fig10", Description: "tree-adjustment optimization speedup", Run: Fig10},
		{Name: "fig11", Description: "tree-wise capacity allocation schemes (% collected)", Run: Fig11},
		{Name: "fig12", Description: "extensions: aggregation/frequency awareness and replication", Run: Fig12},
		{Name: "ablations", Description: "ablations of the planner's search design choices", Run: Ablations},
		{Name: "suppress", Description: "forecast-driven traffic suppression: wire bytes vs accuracy, robustness under faults", Run: Suppress},
		{Name: "region", Description: "WAN topology: cross-region bytes blind vs aware, coverage floor through a region loss", Run: Region},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// env is a generated system plus workload.
type env struct {
	sys *model.System
	d   *task.Demand
}

// envConfig parameterizes experiment environments; the zero value is
// completed by defaults matching the paper's synthetic setup.
type envConfig struct {
	nodes    int
	attrPool int
	// capLo/capHi bound node capacities; chosen so monitoring load keeps
	// every scheme below 100% collection (as the paper does).
	capLo, capHi float64
	central      float64
	ratio        float64 // C/a
	tasks        int
	attrsPerTask int
	nodesPerTask int
	// regions > 1 cuts the nodes into contiguous WAN regions (collector
	// in r0) and labels them; interCost prices inter-region edges.
	regions   int
	interCost float64
	seed      int64
}

func (c envConfig) withDefaults(o Options) envConfig {
	if c.nodes == 0 {
		c.nodes = o.scaleInt(200, 20)
	}
	if c.attrPool == 0 {
		c.attrPool = o.scaleInt(100, 10)
	}
	if c.capLo == 0 {
		c.capLo = 150
	}
	if c.capHi == 0 {
		c.capHi = 400
	}
	if c.ratio == 0 {
		c.ratio = 10
	}
	if c.central == 0 {
		// The collector is provisioned for roughly one two-value root
		// message per node — far below star collection needs, and scaled
		// with the cost model so C/a sweeps stress the nodes rather than
		// the collector.
		c.central = float64(c.nodes) * (c.ratio + 2)
	}
	if c.tasks == 0 {
		c.tasks = o.scaleInt(100, 10)
	}
	if c.attrsPerTask == 0 {
		c.attrsPerTask = 20
	}
	if c.nodesPerTask == 0 {
		c.nodesPerTask = maxInt(4, c.nodes/5)
	}
	if c.seed == 0 {
		c.seed = o.Seed + 1
	}
	return c
}

// buildEnv generates the system and deduplicated demand for a config.
func buildEnv(o Options, c envConfig) (env, error) {
	c = c.withDefaults(o)
	costModel := cost.Model{PerMessage: c.ratio, PerValue: 1}
	sys, err := workload.System(workload.SystemConfig{
		Nodes:           c.nodes,
		Attrs:           c.attrPool,
		CapacityLo:      c.capLo,
		CapacityHi:      c.capHi,
		CentralCapacity: c.central,
		Cost:            costModel,
		Regions:         c.regions,
		InterRegionCost: c.interCost,
		Seed:            c.seed,
	})
	if err != nil {
		return env{}, err
	}
	tasks := workload.Tasks(sys, workload.TaskConfig{
		Count:        c.tasks,
		AttrsPerTask: minInt(c.attrsPerTask, c.attrPool),
		NodesPerTask: minInt(c.nodesPerTask, c.nodes),
		Seed:         c.seed + 7,
	})
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		return env{}, err
	}
	return env{sys: sys, d: d}, nil
}

// pctCollected evaluates a fixed-partition plan and returns the percent
// of demanded node-attribute pairs it collects.
func pctCollected(p *core.Planner, e env, sets []model.AttrSet) float64 {
	res := p.PlanPartition(e.sys, e.d, sets)
	return pct(res.Stats.Collected, e.d.PairCount())
}

// pctPlanned runs the full REMO planner and returns its percent
// collected.
func pctPlanned(p *core.Planner, e env) float64 {
	res := p.Plan(e.sys, e.d)
	return pct(res.Stats.Collected, e.d.PairCount())
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// defaultPlanner is REMO's standard configuration.
func defaultPlanner() *core.Planner {
	return core.NewPlanner()
}

// plannerWith returns a planner using the given tree scheme and
// allocation policy.
func plannerWith(ts tree.Scheme, as alloc.Scheme) *core.Planner {
	return core.NewPlanner(
		core.WithBuilder(tree.New(ts)),
		core.WithAlloc(alloc.New(as)),
	)
}

// sweepInts builds a scaled integer sweep.
func sweepInts(o Options, base []int, lo int) []int {
	out := make([]int, 0, len(base))
	seen := make(map[int]struct{})
	for _, b := range base {
		v := o.scaleInt(b, lo)
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// mustAdd appends a row, panicking on programmer error (mismatched
// columns cannot happen at runtime with correct experiment code).
func mustAdd(t *metrics.Table, x float64, cells ...float64) {
	if err := t.Add(x, cells...); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
}
