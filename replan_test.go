package remo_test

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"remo"
	"remo/internal/journal"
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

// planGate parks the first Distance call after arm — one only the
// planner makes, rounds never do — until open.
type planGate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

// gatedSystem is bigSystem with a planGate in its Distance hook.
func gatedSystem(t *testing.T, n int) (*remo.System, *planGate) {
	g := &planGate{entered: make(chan struct{}), release: make(chan struct{})}
	sys := bigSystem(t, n)
	sys.Distance = func(a, b remo.NodeID) float64 {
		if g.armed.CompareAndSwap(true, false) {
			g.entered <- struct{}{}
			<-g.release
		}
		return 1
	}
	return sys, g
}

type setTasksResult struct {
	rep remo.AdaptReport
	err error
}

// parkedSetTasks starts SetTasks(tasks) on mon and returns once its
// planner is parked in the gate, mutex released.
func parkedSetTasks(t *testing.T, mon *remo.Monitor, g *planGate, tasks ...remo.Task) <-chan setTasksResult {
	t.Helper()
	done := make(chan setTasksResult, 1)
	g.armed.Store(true)
	go func() {
		rep, err := mon.SetTasks(tasks)
		done <- setTasksResult{rep, err}
	}()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("SetTasks never reached the planner")
	}
	return done
}

func (g *planGate) open() { close(g.release) }

func awaitSetTasks(t *testing.T, done <-chan setTasksResult) remo.AdaptReport {
	t.Helper()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.rep
	case <-time.After(20 * time.Second):
		t.Fatal("SetTasks never returned")
	}
	return remo.AdaptReport{}
}

// TestStepViewBesideParkedReplan: a SetTasks whose commit is queued on
// the mutex while a round runs installs right after that round, and the
// view the round's Step returns is still the round's own — the plan it
// ran under — while the commit's view, at the same round, carries the
// new plan.
func TestStepViewBesideParkedReplan(t *testing.T) {
	sys, g := gatedSystem(t, 16)
	all := sys.NodeIDs()
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: all})
	var inRound atomic.Pointer[func()]
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 3, Source: remo.ValueFunc(func(n remo.NodeID, a remo.AttrID, round int) float64 {
		if f := inRound.Swap(nil); f != nil {
			(*f)()
		}
		return float64(round)
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	run(t, mon, 3)
	before := mon.View()
	done := parkedSetTasks(t, mon, g,
		remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: all},
		remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: all})
	run(t, mon, 2) // the plan in flight holds no lock rounds need

	// Inside the next round, let the planner finish: its commit then
	// waits on the mutex the round holds.
	release := func() { g.open(); time.Sleep(50 * time.Millisecond) }
	inRound.Store(&release)
	v, err := mon.Step()
	if err != nil {
		t.Fatal(err)
	}
	rep := awaitSetTasks(t, done)
	after := mon.View()
	if v.Round != before.Round+3 || v.Fingerprint != before.Fingerprint {
		t.Fatalf("Step returned round %d fingerprint %#x; the round ran as %d under %#x",
			v.Round, v.Fingerprint, before.Round+3, before.Fingerprint)
	}
	if after.Fingerprint == before.Fingerprint {
		t.Fatalf("fixture: the task swap kept fingerprint %#x", before.Fingerprint)
	}
	if rep.Round != v.Round || rep.Fingerprint != after.Fingerprint || after.Round != v.Round {
		t.Fatalf("commit reported round %d fingerprint %#x; view says round %d fingerprint %#x, Step round %d",
			rep.Round, rep.Fingerprint, after.Round, after.Fingerprint, v.Round)
	}
	if err := mon.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestReplanReconcilesMidPlanVerdicts: while a SetTasks plans on its
// snapshot of the dead set, one node dies and another — dead and
// repaired around before the plan began — comes back. Rounds go on and
// the verdicts are journaled and counted at once, but the repairs wait
// for the commit, which repairs around the new death and reintegrates
// the recovery, each recorded exactly once.
func TestReplanReconcilesMidPlanVerdicts(t *testing.T) {
	sys, g := gatedSystem(t, 16)
	all := sys.NodeIDs()
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: all})
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed: 3,
		Chaos: &remo.ChaosConfig{CrashWindows: map[remo.NodeID][]remo.ChaosWindow{
			5: {{From: 2, To: 14}},
			9: {{From: 12, To: 1 << 30}},
		}},
		Failure: &remo.FailurePolicy{SuspicionRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	run(t, mon, 10)
	if f := mon.Failed(); len(f) != 1 || f[0] != 5 || len(mon.Report().Repairs) != 1 {
		t.Fatalf("fixture: before the plan, dead %v and repairs %+v; want node 5 dead and repaired", f, mon.Report().Repairs)
	}

	done := parkedSetTasks(t, mon, g,
		remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: all},
		remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: all})
	for i := 0; ; i++ {
		if f := mon.Failed(); len(f) == 1 && f[0] == 9 {
			break
		}
		if i == 30 {
			t.Fatalf("mid-plan verdicts never arrived: dead %v at round %d", mon.Failed(), mon.Round())
		}
		run(t, mon, 1)
	}
	if rep := mon.Report(); len(rep.Repairs) != 1 || rep.FailuresDetected != 2 || rep.NodesRecovered != 1 {
		t.Fatalf("mid-plan: repairs %+v, %d failures, %d recoveries; want the verdicts counted and the repairs deferred",
			rep.Repairs, rep.FailuresDetected, rep.NodesRecovered)
	}
	g.open()
	awaitSetTasks(t, done)

	check := func(when string) {
		t.Helper()
		plan := mon.Plan()
		for _, a := range []remo.AttrID{1, 2} {
			if _, ok := plan.ParentOf(9, a); ok {
				t.Fatalf("%s: dead node 9 still delivers attribute %d", when, a)
			}
			if _, ok := plan.ParentOf(5, a); !ok {
				t.Fatalf("%s: recovered node 5 does not deliver attribute %d", when, a)
			}
		}
		if err := mon.Verify(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		var died, back int
		for _, ev := range mon.Report().Repairs {
			for _, n := range ev.Failed {
				if n == 9 {
					died++
				}
			}
			for _, n := range ev.Recovered {
				if n == 5 {
					back++
				}
			}
		}
		if died != 1 || back != 1 || len(mon.Report().Repairs) != 3 {
			t.Fatalf("%s: repairs %+v; want node 5's failure, node 9's and node 5's recovery once each", when, mon.Report().Repairs)
		}
	}
	check("at commit")
	run(t, mon, 6)
	check("six rounds on")
}

// TestCheckpointDuringParkedReplan: a checkpoint taken while a SetTasks
// plans describes the plan in force — its fingerprint and the task set
// behind it, not the one being planned — so a session resumed from it
// lands on that plan with PlanMatched.
func TestCheckpointDuringParkedReplan(t *testing.T) {
	sys, g := gatedSystem(t, 16)
	all := sys.NodeIDs()
	dir := t.TempDir()
	p := remo.NewPlanner(sys)
	cpu := remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: all}
	p.MustAddTask(cpu)
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 3, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	run(t, mon, 5)
	before := mon.Fingerprint()
	done := parkedSetTasks(t, mon, g, cpu, remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: all})
	run(t, mon, 2)
	if err := mon.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := t.TempDir()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files { // a lone collector's journal is one flat directory
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(snap, f.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	g.open()
	if awaitSetTasks(t, done); mon.Fingerprint() == before {
		t.Fatalf("fixture: the task swap kept fingerprint %#x", before)
	}

	rec, err := journal.Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	if st := rec.State; st.Fingerprint != before || st.BaseDemand.PairCount() != len(all) {
		t.Fatalf("mid-plan checkpoint holds fingerprint %#x and %d base pairs; the plan in force was %#x over %d",
			st.Fingerprint, st.BaseDemand.PairCount(), before, len(all))
	}
	resumed, rr, err := remo.NewPlanner(bigSystem(t, 16)).ResumeMonitor(snap, remo.MonitorConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resumed.Close() }()
	if !rr.PlanMatched || resumed.Fingerprint() != before {
		t.Fatalf("resumed onto %#x (PlanMatched %v); the plan in force was %#x", resumed.Fingerprint(), rr.PlanMatched, before)
	}
}
