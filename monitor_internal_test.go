package remo

import "testing"

// TestSetTasksWeightsDemandByFrequency pins the one tasks → demand path:
// a live Monitor's SetTasks installs the frequency-weighted demand of the
// new task list, not unit weights.
func TestSetTasksWeightsDemandByFrequency(t *testing.T) {
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

	mon, err := p.StartMonitor(MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if _, err := mon.SetTasks(tasks); err != nil {
		t.Fatal(err)
	}

	got := mon.s.adaptor.Demand()
	if n := len(got.Pairs()); n != 2*len(nodes) {
		t.Fatalf("monitor demands %d pairs, want %d", n, 2*len(nodes))
	}
	for _, pr := range got.Pairs() {
		want := 1.0
		if pr.Attr == 2 {
			want = 0.5
		}
		if w := got.Weight(pr.Node, pr.Attr); w != want {
			t.Fatalf("pair %v weighs %v, want %v", pr, w, want)
		}
	}
}
