package remo

import "testing"

// TestAdaptorSharesMonitorDemandPath pins the one tasks → demand path:
// an Adaptor must plan against the same frequency-weighted demand a
// live Monitor installs for the same task list, not unit weights.
func TestAdaptorSharesMonitorDemandPath(t *testing.T) {
	nodes := make([]Node, 6)
	for i := range nodes {
		nodes[i] = Node{ID: NodeID(i + 1), Capacity: 200, Attrs: []AttrID{1, 2}}
	}
	sys, err := NewSystem(SystemSpec{
		CentralCapacity: 1000,
		Cost:            CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(sys)
	if err := p.SetFrequency(2, 0.5); err != nil {
		t.Fatal(err)
	}
	tasks := []Task{
		{Name: "fast", Attrs: []AttrID{1}, Nodes: sys.NodeIDs()},
		{Name: "slow", Attrs: []AttrID{2}, Nodes: sys.NodeIDs()},
	}
	p.MustAddTask(tasks[0])

	ad := NewAdaptor(p, AdaptAdaptive)
	if _, err := ad.SetTasks(tasks); err != nil {
		t.Fatal(err)
	}
	mon, err := p.StartMonitor(MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if _, err := mon.SetTasks(tasks); err != nil {
		t.Fatal(err)
	}

	got, want := ad.inner.Demand(), mon.s.adaptor.Demand()
	if len(got.Pairs()) != len(want.Pairs()) {
		t.Fatalf("adaptor demands %d pairs, monitor %d", len(got.Pairs()), len(want.Pairs()))
	}
	for _, pr := range want.Pairs() {
		if g, w := got.Weight(pr.Node, pr.Attr), want.Weight(pr.Node, pr.Attr); g != w {
			t.Fatalf("pair %v: adaptor weight %v, monitor weight %v", pr, g, w)
		}
	}
	if w := got.Weight(1, 2); w != 0.5 {
		t.Fatalf("attr 2 at half the rate of attr 1 weighs %v, want 0.5", w)
	}
}
