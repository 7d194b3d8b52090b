package remo_test

import (
	"testing"

	"remo"
)

// TestMonitorIncrementalReplanTrace exercises the facade surface of
// incremental replanning: SetTasks on a default session goes through
// the scoped replanner, the AdaptReport and DeployReport carry the plan
// diff, and the trace records the swap tree-by-tree.
func TestMonitorIncrementalReplanTrace(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	ids := allNodes(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: ids})

	rec := remo.NewTraceRecorder(4096)
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 5, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(3); err != nil {
		t.Fatal(err)
	}

	rep, err := mon.SetTasks([]remo.Task{
		{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: ids},
		{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: ids},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incremental {
		t.Fatalf("default session replanned non-incrementally: %+v", rep)
	}
	if rep.TreesKept+rep.TreesRebuilt == 0 {
		t.Fatalf("plan diff empty after task arrival: %+v", rep)
	}
	if rep.TreeReusePct < 0 || rep.TreeReusePct > 100 {
		t.Fatalf("TreeReusePct = %v", rep.TreeReusePct)
	}

	final := mon.Report()
	if len(final.Replans) != 1 {
		t.Fatalf("DeployReport.Replans has %d events, want 1", len(final.Replans))
	}
	ev := final.Replans[0]
	if ev.TreesKept != rep.TreesKept || ev.TreesRebuilt != rep.TreesRebuilt ||
		ev.Incremental != rep.Incremental || ev.ReusePct != rep.TreeReusePct {
		t.Fatalf("ReplanEvent %+v does not match AdaptReport %+v", ev, rep)
	}
	if ev.PlanTime < 0 {
		t.Fatalf("negative plan time %v", ev.PlanTime)
	}

	counts := rec.Counts()
	if counts[remo.TraceReplan] != 1 {
		t.Fatalf("trace has %d replan events, want 1", counts[remo.TraceReplan])
	}
	kept := counts[remo.TraceTreeKept]
	rebuilt := counts[remo.TraceTreeRebuilt]
	if kept != rep.TreesKept || rebuilt != rep.TreesRebuilt {
		t.Fatalf("trace tree events kept=%d rebuilt=%d, report kept=%d rebuilt=%d",
			kept, rebuilt, rep.TreesKept, rep.TreesRebuilt)
	}
}

// TestAdaptiveSchemeOptsOutOfIncremental pins the opt-out: a session
// that names the paper's ADAPTIVE scheme reports non-incremental
// replans.
func TestAdaptiveSchemeOptsOutOfIncremental(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	ids := allNodes(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: ids})

	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 5, Scheme: remo.AdaptAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(2); err != nil {
		t.Fatal(err)
	}
	rep, err := mon.SetTasks([]remo.Task{
		{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: ids},
		{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: ids},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incremental {
		t.Fatalf("opted-out session still replanned incrementally: %+v", rep)
	}
	if rep.CollectedPairs == 0 {
		t.Fatalf("opted-out replan collected nothing: %+v", rep)
	}
}
