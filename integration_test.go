package remo_test

import (
	"strings"
	"testing"

	"remo"
)

// TestStoreProcessorIntegration wires the data repository and result
// processor into a session via OnValue and checks both observe the
// collected stream.
func TestStoreProcessorIntegration(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2}, Nodes: allNodes(sys)})

	st := remo.NewStore(32)
	pr := remo.NewProcessor(64)
	if err := pr.AddTrigger(remo.Trigger{
		Name: "always", Attr: 1, Cond: remo.TriggerAbove, Threshold: -1, Cooldown: 5,
	}); err != nil {
		t.Fatal(err)
	}

	rep := runSession(t, p, remo.MonitorConfig{
		Seed: 9,
		OnValue: func(pair remo.Pair, round int, v float64) {
			st.Observe(pair, round, v)
			pr.Observe(pair, round, v)
		},
	}, 20)

	// Every covered pair is in the repository.
	if got := len(st.Pairs()); got != rep.CoveredPairs {
		t.Fatalf("store pairs = %d, covered = %d", got, rep.CoveredPairs)
	}
	// Window queries return ordered history.
	pair := st.Pairs()[0]
	window := st.Window(pair, 0, 20)
	if len(window) < 2 {
		t.Fatalf("window too small: %+v", window)
	}
	sum, ok := st.Summarize(pair)
	if !ok || sum.Count != len(window) || sum.Min > sum.Max {
		t.Fatalf("summary = %+v (window %d)", sum, len(window))
	}
	// The always-firing trigger produced alerts, throttled by cooldown.
	if pr.AlertCount() == 0 {
		t.Fatal("no alerts fired")
	}
}

// TestPlanRepairFlow plans, breaks a relay node, repairs, and verifies
// the repaired topology restores coverage for survivors.
func TestPlanRepairFlow(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2, 3}, Nodes: allNodes(sys)})
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}

	victim := plan.Trees()[0].Root
	repaired, rep, err := plan.Repair([]remo.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TreesRebuilt == 0 || rep.FailedMembers == 0 {
		t.Fatalf("repair report = %+v", rep)
	}
	if rep.PairsLost != 3 { // the victim's own three attributes
		t.Fatalf("PairsLost = %d, want 3", rep.PairsLost)
	}
	if err := repaired.Validate(); err != nil {
		t.Fatal(err)
	}
	// Survivors stay fully covered after the repair.
	if repaired.PercentCollected() < 99 {
		t.Fatalf("repaired coverage = %.1f%%", repaired.PercentCollected())
	}
}

// TestSharedValueTask exercises the DSDP extension end to end.
func TestSharedValueTask(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	ids := allNodes(sys)
	// Two shared storage volumes, each observed by three hosts.
	groups := [][]remo.NodeID{ids[:3], ids[3:6]}
	if err := p.AddSharedValueTask("storage-perf", 4, groups, 2); err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Trees()) < 2 {
		t.Fatalf("trees = %d, want >= 2 (disjoint paths)", len(plan.Trees()))
	}
	rep := runSession(t, p, remo.MonitorConfig{}, 10)
	if rep.CoveredPairs == 0 {
		t.Fatal("nothing covered")
	}
	// Too many replicas for the group size must fail.
	if err := p.AddSharedValueTask("too-many", 5, groups, 4); err == nil {
		t.Fatal("oversubscribed DSDP accepted")
	}
}

// TestDeployOverTCPMatchesCoverage cross-checks the TCP transport
// against the in-process one on the same plan.
func TestDeployOverTCPMatchesCoverage(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2}, Nodes: allNodes(sys)})
	mem := runSession(t, p, remo.MonitorConfig{Seed: 1}, 12)
	tcp := runSession(t, p, remo.MonitorConfig{Seed: 1, UseTCP: true}, 12)
	if tcp.CoveredPairs != mem.CoveredPairs {
		t.Fatalf("TCP covered %d, memory covered %d", tcp.CoveredPairs, mem.CoveredPairs)
	}
	if tcp.MessagesSent == 0 {
		t.Fatal("no TCP traffic")
	}
}

// TestBaselinePlansAreWorseOrEqual sanity-checks the WithBaseline
// option against the search on a constrained system.
func TestBaselinePlansAreWorseOrEqual(t *testing.T) {
	nodes := make([]remo.Node, 20)
	for i := range nodes {
		nodes[i] = remo.Node{
			ID:       remo.NodeID(i + 1),
			Capacity: 60,
			Attrs:    []remo.AttrID{1, 2, 3, 4},
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: 300,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	coverage := func(b remo.Baseline) float64 {
		p := remo.NewPlanner(sys, remo.WithBaseline(b))
		for _, a := range []remo.AttrID{1, 2, 3, 4} {
			p.MustAddTask(remo.Task{
				Name:  "t" + string(rune('0'+a)),
				Attrs: []remo.AttrID{a},
				Nodes: sys.NodeIDs(),
			})
		}
		plan, err := p.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return plan.PercentCollected()
	}
	remoPct := coverage(remo.BaselineNone)
	if sp := coverage(remo.BaselineSingletonSet); remoPct < sp {
		t.Fatalf("REMO %.1f%% < SP %.1f%%", remoPct, sp)
	}
	if op := coverage(remo.BaselineOneSet); remoPct < op {
		t.Fatalf("REMO %.1f%% < OP %.1f%%", remoPct, op)
	}
}

// TestDistanceAwarePlanning installs a racked distance function and
// verifies planning remains valid and accounts for the dearer cross-rack
// sends.
func TestDistanceAwarePlanning(t *testing.T) {
	sys := testSystem(t)
	sys.Distance = remo.RackDistance(4, 1, 5)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2}, Nodes: allNodes(sys)})
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// The same plan must cost strictly more than under uniform distance
	// whenever any edge crosses racks; at minimum it costs no less.
	uniform := testSystem(t)
	pu := remo.NewPlanner(uniform)
	pu.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2}, Nodes: allNodes(uniform)})
	uplan, err := pu.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalCost() < uplan.TotalCost()-1e-6 {
		t.Fatalf("distance-aware cost %.1f < uniform %.1f", plan.TotalCost(), uplan.TotalCost())
	}
	rep := runSession(t, p, remo.MonitorConfig{}, 10)
	if rep.CoveredPairs == 0 {
		t.Fatal("nothing covered under distance-aware plan")
	}
}

// TestPlanExportImport round-trips a plan through its JSON form.
func TestPlanExportImport(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2}, Nodes: allNodes(sys)})
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := plan.Export(&buf); err != nil {
		t.Fatal(err)
	}
	imported, err := p.ImportPlan(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if imported.CollectedPairs() != plan.CollectedPairs() {
		t.Fatalf("imported collects %d, original %d",
			imported.CollectedPairs(), plan.CollectedPairs())
	}
	if imported.TotalCost() != plan.TotalCost() {
		t.Fatalf("imported cost %.3f, original %.3f", imported.TotalCost(), plan.TotalCost())
	}
	// Garbage and structurally invalid docs are rejected.
	if _, err := p.ImportPlan(strings.NewReader("{bad")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := p.ImportPlan(strings.NewReader(
		`{"trees":[{"attrs":[1],"edges":[{"child":2,"parent":9}]}]}`)); err == nil {
		t.Fatal("dangling edge accepted")
	}
	// A plan that overloads the current system is rejected: shrink
	// capacities and re-import.
	small := testSystem(t)
	for i := range small.Nodes {
		small.Nodes[i].Capacity = 12
	}
	ps := remo.NewPlanner(small)
	ps.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2}, Nodes: allNodes(small)})
	if _, err := ps.ImportPlan(strings.NewReader(buf.String())); err == nil {
		t.Fatal("over-capacity import accepted")
	}
}
