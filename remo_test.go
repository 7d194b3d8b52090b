package remo_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"remo"
)

// testSystem builds a 12-node system where every node observes attrs
// 1..4.
func testSystem(t *testing.T) *remo.System {
	t.Helper()
	nodes := make([]remo.Node, 12)
	for i := range nodes {
		nodes[i] = remo.Node{
			ID:       remo.NodeID(i + 1),
			Capacity: 120,
			Attrs:    []remo.AttrID{1, 2, 3, 4},
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: 600,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func allNodes(sys *remo.System) []remo.NodeID { return sys.NodeIDs() }

// runSession runs the planner's task set as a session of the given
// rounds and returns what it observed.
func runSession(t testing.TB, p *remo.Planner, cfg remo.MonitorConfig, rounds int) remo.DeployReport {
	t.Helper()
	mon, err := p.StartMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return mon.Report()
}

func TestPlanAndDescribe(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: allNodes(sys)})

	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.DemandedPairs() != 24 {
		t.Fatalf("demanded = %d, want 24", plan.DemandedPairs())
	}
	if plan.PercentCollected() < 99 {
		t.Fatalf("collected %.1f%%, want ~100%%", plan.PercentCollected())
	}
	if len(plan.MissedPairs()) != 0 {
		t.Fatalf("missed = %v", plan.MissedPairs())
	}
	var sb strings.Builder
	if err := plan.Describe(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pairs collected") {
		t.Fatalf("Describe output: %s", sb.String())
	}
	if _, ok := plan.ParentOf(allNodes(sys)[0], 1); !ok {
		t.Fatal("ParentOf failed for a collected pair")
	}
}

func TestDedupAcrossTasks(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	nodes := allNodes(sys)
	p.MustAddTask(remo.Task{Name: "a", Attrs: []remo.AttrID{1}, Nodes: nodes[:8]})
	p.MustAddTask(remo.Task{Name: "b", Attrs: []remo.AttrID{1}, Nodes: nodes[4:]})
	raw, distinct := p.DedupStats()
	if raw != 16 || distinct != 12 {
		t.Fatalf("dedup = (%d, %d), want (16, 12)", raw, distinct)
	}
}

func TestTaskLifecycle(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	task := remo.Task{Name: "t", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)[:3]}
	if err := p.AddTask(task); err != nil {
		t.Fatal(err)
	}
	task.Attrs = []remo.AttrID{1, 2}
	if err := p.UpdateTask(task); err != nil {
		t.Fatal(err)
	}
	if got := p.Tasks(); len(got) != 1 || len(got[0].Attrs) != 2 {
		t.Fatalf("Tasks = %+v", got)
	}
	if err := p.RemoveTask("t"); err != nil {
		t.Fatal(err)
	}
	if len(p.Tasks()) != 0 {
		t.Fatal("task not removed")
	}
}

func TestDeploy(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2, 3}, Nodes: allNodes(sys)})
	rep := runSession(t, p, remo.MonitorConfig{Seed: 5}, 20)
	if rep.CoveredPairs != rep.DemandedPairs {
		t.Fatalf("covered %d of %d", rep.CoveredPairs, rep.DemandedPairs)
	}
	if rep.AvgPercentError <= 0 || rep.AvgPercentError > 60 {
		t.Fatalf("error = %.2f%%", rep.AvgPercentError)
	}
	if rep.MessagesSent == 0 {
		t.Fatal("no traffic")
	}
}

// TestDeployRuntimeWorkersEquivalent: a session sizes the round
// engine's pool to GOMAXPROCS, and the report must not depend on it. One
// CPU resolves to the inline single-worker engine — the reference.
func TestDeployRuntimeWorkersEquivalent(t *testing.T) {
	deploy := func(procs int) remo.DeployReport {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sys := testSystem(t)
		p := remo.NewPlanner(sys)
		p.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2, 3}, Nodes: allNodes(sys)})
		return runSession(t, p, remo.MonitorConfig{Seed: 5}, 20)
	}
	want := deploy(1)
	for _, procs := range []int{2, 4} {
		got := deploy(procs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d changed the report:\ngot  %+v\nwant %+v",
				procs, got, want)
		}
	}
}

func TestDeployCustomSourceAndFailure(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	constant := remo.ValueFunc(func(remo.NodeID, remo.AttrID, int) float64 { return 42 })
	clean := runSession(t, p, remo.MonitorConfig{Source: constant}, 15)
	// A constant signal has zero staleness error once delivered.
	if clean.AvgPercentError > 20 {
		t.Fatalf("constant-source error = %.2f%%", clean.AvgPercentError)
	}
	failed := runSession(t, p, remo.MonitorConfig{
		Source:  constant,
		Chaos:   &remo.ChaosConfig{CrashWindows: downFrom(map[remo.NodeID]int{plan.Trees()[0].Root: 2})},
		Failure: &remo.FailurePolicy{DisableRepair: true},
	}, 15)
	if failed.ValuesDelivered >= clean.ValuesDelivered {
		t.Fatal("root failure did not reduce deliveries")
	}
}

func TestAggregationOption(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys, remo.WithAggregation(1, remo.AggMax, 0))
	p.MustAddTask(remo.Task{Name: "max", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})
	rep := runSession(t, p, remo.MonitorConfig{}, 10)
	// MAX aggregation collapses the whole tree to one logical target.
	if rep.DemandedPairs != 1 {
		t.Fatalf("aggregated demanded = %d, want 1", rep.DemandedPairs)
	}
}

func TestReliableTask(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	if err := p.AddReliableTask(remo.Task{
		Name: "critical", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)[:6],
	}, 2); err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// Replica values travel distinct trees.
	trees := plan.Trees()
	if len(trees) < 2 {
		t.Fatalf("trees = %d, want >= 2 for replication", len(trees))
	}
	rep := runSession(t, p, remo.MonitorConfig{}, 10)
	// Aliases fold: 6 demanded pairs despite 12 planned deliveries.
	if rep.DemandedPairs != 6 {
		t.Fatalf("demanded = %d, want 6", rep.DemandedPairs)
	}
	if rep.CoveredPairs != 6 {
		t.Fatalf("covered = %d", rep.CoveredPairs)
	}
}

func TestFrequencyOption(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "mixed", Attrs: []remo.AttrID{1, 2}, Nodes: allNodes(sys)})
	if err := p.SetFrequency(2, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := p.SetFrequency(2, -1); err == nil {
		t.Fatal("negative frequency accepted")
	}
	rep := runSession(t, p, remo.MonitorConfig{}, 20)
	if rep.CoveredPairs != rep.DemandedPairs {
		t.Fatalf("covered %d of %d", rep.CoveredPairs, rep.DemandedPairs)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	const doc = `{
		"centralCapacity": 500,
		"perMessage": 10,
		"perValue": 1,
		"nodes": [
			{"id": 1, "capacity": 100},
			{"id": 2, "capacity": 100, "attrs": [1]}
		],
		"tasks": [
			{"name": "t", "attrs": [1, 2], "nodes": [1, 2]}
		]
	}`
	spec, err := remo.LoadSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 only observes attr 1, so 3 pairs are demanded.
	if plan.DemandedPairs() != 3 {
		t.Fatalf("demanded = %d, want 3", plan.DemandedPairs())
	}
	if _, err := remo.LoadSpec(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestPlannerSchemeOptions(t *testing.T) {
	sys := testSystem(t)
	for _, scheme := range []struct {
		name string
		opt  remo.PlannerOption
	}{
		{"star", remo.WithTreeScheme(remo.TreeStar)},
		{"chain", remo.WithTreeScheme(remo.TreeChain)},
		{"uniform", remo.WithAllocScheme(remo.AllocUniform)},
		{"budget", remo.WithEvalBudget(4)},
	} {
		p := remo.NewPlanner(sys, scheme.opt)
		p.MustAddTask(remo.Task{Name: "t", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})
		if _, err := p.Plan(); err != nil {
			t.Errorf("%s: %v", scheme.name, err)
		}
	}
}

func TestDescribeWideAttributeSets(t *testing.T) {
	sys := testSystem(t)
	// 12 attrs on one tree exercises the preview truncation.
	nodes := make([]remo.Node, 6)
	attrs := make([]remo.AttrID, 12)
	for i := range attrs {
		attrs[i] = remo.AttrID(i + 1)
	}
	for i := range nodes {
		nodes[i] = remo.Node{ID: remo.NodeID(i + 1), Capacity: 1e6, Attrs: attrs}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: 1e6,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "wide", Attrs: attrs, Nodes: sys.NodeIDs()})
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := plan.Describe(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "attrs)") { // "… (12 attrs)"
		t.Fatalf("wide attr preview missing:\n%s", sb.String())
	}
}

func TestNodeUsageIsACopy(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "t", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	u1 := plan.NodeUsage()
	for k := range u1 {
		u1[k] = -1
	}
	u2 := plan.NodeUsage()
	for _, v := range u2 {
		if v < 0 {
			t.Fatal("NodeUsage shares internal state")
		}
	}
}

func TestPlannerWorkersOption(t *testing.T) {
	sys := testSystem(t)
	plans := make([]*remo.Plan, 0, 3)
	for _, workers := range []int{0, 1, 4} {
		p := remo.NewPlanner(sys, remo.WithPlannerWorkers(workers))
		p.MustAddTask(remo.Task{Name: "t", Attrs: []remo.AttrID{1, 2}, Nodes: allNodes(sys)})
		pl, err := p.Plan()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		plans = append(plans, pl)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].PercentCollected() != plans[0].PercentCollected() {
			t.Fatalf("worker counts disagree: %v vs %v",
				plans[i].PercentCollected(), plans[0].PercentCollected())
		}
	}
}
