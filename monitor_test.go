package remo_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"remo"
)

func TestMonitorLiveAdaptation(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	ids := allNodes(sys)
	tasks := []remo.Task{{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: ids}}
	for _, task := range tasks {
		p.MustAddTask(task)
	}

	// REBUILD replans from scratch, so coverage assertions are exact;
	// the throttled schemes may defer marginal gains.
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 3, Scheme: remo.AdaptRebuild})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()

	if err := mon.Run(10); err != nil {
		t.Fatal(err)
	}
	mid := mon.Report()
	if mid.CoveredPairs != len(ids) {
		t.Fatalf("covered %d of %d before adaptation", mid.CoveredPairs, len(ids))
	}

	// Add a second task mid-flight.
	tasks = append(tasks, remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: ids})
	rep, err := mon.SetTasks(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CollectedPairs != 2*len(ids) {
		t.Fatalf("adapted plan collects %d, want %d", rep.CollectedPairs, 2*len(ids))
	}
	if err := mon.Run(10); err != nil {
		t.Fatal(err)
	}
	final := mon.Report()
	if final.Rounds != 20 {
		t.Fatalf("rounds = %d, want 20", final.Rounds)
	}
	if final.DemandedPairs != 2*len(ids) {
		t.Fatalf("demanded = %d, want %d", final.DemandedPairs, 2*len(ids))
	}
	if final.CoveredPairs != 2*len(ids) {
		t.Fatalf("covered %d of %d after adaptation", final.CoveredPairs, final.DemandedPairs)
	}
	// The live plan validates.
	if err := mon.Plan().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorTaskRemovalShrinksDemand(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	ids := allNodes(sys)
	p.MustAddTask(remo.Task{Name: "a", Attrs: []remo.AttrID{1}, Nodes: ids})
	p.MustAddTask(remo.Task{Name: "b", Attrs: []remo.AttrID{2}, Nodes: ids})

	mon, err := p.StartMonitor(remo.MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.SetTasks([]remo.Task{
		{Name: "a", Attrs: []remo.AttrID{1}, Nodes: ids},
	}); err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(5); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.DemandedPairs != len(ids) {
		t.Fatalf("demanded = %d after removal, want %d", rep.DemandedPairs, len(ids))
	}
}

// TestMonitorClosed pins both halves of the read/write split on a
// closed session: every call that changes state refuses with
// ErrMonitorClosed, and the wait-free reads keep answering from the last
// view published before Close.
func TestMonitorClosed(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "a", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})
	dir := t.TempDir()
	mon, err := p.StartMonitor(remo.MonitorConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(3); err != nil {
		t.Fatal(err)
	}
	last := mon.View()
	if last.Round != 3 || last.Plan == nil || last.Store == nil || last.JournalDir != dir || last.ShardCount != 1 || last.ShardLeader != 0 {
		t.Fatalf("view before Close = %+v", last)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	_, setErr := mon.SetTasks(nil)
	_, resumeErr := mon.Resume()
	_, shardErr := mon.ResumeShard(0)
	for name, err := range map[string]error{
		"Run": mon.Run(1), "SetTasks": setErr, "Resume": resumeErr,
		"ResumeShard": shardErr, "Checkpoint": mon.Checkpoint(),
	} {
		if !errors.Is(err, remo.ErrMonitorClosed) {
			t.Errorf("%s on a closed monitor = %v, want ErrMonitorClosed", name, err)
		}
	}
	if got := mon.View(); !reflect.DeepEqual(got, last) {
		t.Fatalf("view after Close = %+v, want the last one published %+v", got, last)
	}
	if mon.Round() != last.Round || mon.Fingerprint() != last.Fingerprint || mon.Plan() != last.Plan ||
		mon.Store() != last.Store || mon.JournalDir() != dir || mon.CollectorDown() ||
		len(mon.Failed()) != 0 || mon.ShardCount() != 1 || mon.ShardLeader() != 0 {
		t.Fatal("an accessor disagrees with the view it is a field of")
	}
}

func TestMonitorOverTCP(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "a", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})
	mon, err := p.StartMonitor(remo.MonitorConfig{UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(6); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.MessagesSent == 0 || rep.CoveredPairs == 0 {
		t.Fatalf("TCP session: %+v", rep)
	}
}

// TestMonitorCloseReleasesTCP opens and closes TCP sessions in a row and
// requires the goroutine count to return to where it started: the
// session opened the transport (listeners, accept loops, one reader per
// connection), so closing the session must close it.
func TestMonitorCloseReleasesTCP(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "a", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		mon, err := p.StartMonitor(remo.MonitorConfig{UseTCP: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Run(3); err != nil {
			t.Fatal(err)
		}
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Readers exit when they observe their connection closed.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Fatalf("goroutine leak: %d before five TCP sessions, %d after", baseline, now)
	}
}

// TestMonitorCountsPastRound65536 runs a small session past round 65 536,
// where a fixed per-pair delivery horizon would stop counting and decay
// PercentCollected: every round's value must keep counting.
func TestMonitorCountsPastRound65536(t *testing.T) {
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: 100,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           []remo.Node{{ID: 1, Capacity: 100, Attrs: []remo.AttrID{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(70000); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.PercentCollected < 99.99 || rep.ValuesDelivered != 70000 {
		t.Fatalf("after %d rounds: %.3f%% collected, %d values delivered", rep.Rounds, rep.PercentCollected, rep.ValuesDelivered)
	}
}

// TestMonitorProcessorWithoutJournal: a session's values leave the
// collector one way whether or not it journals, so a Processor on a
// non-durable session is fed and its trigger fires, once per pair
// inside the cooldown, alongside the caller's OnValue.
func TestMonitorProcessorWithoutJournal(t *testing.T) {
	sys := bigSystem(t, 8)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	proc := remo.NewProcessor(0)
	if err := proc.AddTrigger(remo.Trigger{
		Name: "any", Attr: 1, Cond: remo.TriggerAbove, Threshold: -1e18, Cooldown: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed: 5, Processor: proc,
		OnValue: func(remo.Pair, int, float64) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(10); err != nil {
		t.Fatal(err)
	}
	if mon.Store() != nil {
		t.Fatal("a session without a journal keeps a store")
	}
	if seen == 0 {
		t.Fatal("OnValue saw no values")
	}
	if got, want := proc.AlertCount(), len(sys.NodeIDs()); got != want {
		t.Fatalf("trigger fired %d times, want once per pair (%d)", got, want)
	}
}

// TestStartMonitorAfterPlanBootsTheSameForest: a session started right
// after Plan may boot on the printed plan's partition instead of
// searching again, but it must boot the very forest a session of a
// planner that never planned boots — also when a prediction discount
// made Plan pack a demand other than the runtime one.
func TestStartMonitorAfterPlanBootsTheSameForest(t *testing.T) {
	for _, discount := range []bool{false, true} {
		boot := func(plan bool) uint64 {
			// Six attributes on tight nodes: discounting three of them
			// makes Plan pick another partition.
			nodes := make([]remo.Node, 30)
			for i := range nodes {
				nodes[i] = remo.Node{ID: remo.NodeID(i + 1), Capacity: 90, Attrs: []remo.AttrID{1, 2, 3, 4, 5, 6}}
			}
			sys, err := remo.NewSystem(remo.SystemSpec{
				CentralCapacity: 600,
				Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
				Nodes:           nodes,
			})
			if err != nil {
				t.Fatal(err)
			}
			p := remo.NewPlanner(sys, remo.WithPrediction(0.01))
			for a := remo.AttrID(1); a <= 6; a++ {
				p.MustAddTask(remo.Task{Name: fmt.Sprint(a), Attrs: []remo.AttrID{a}, Nodes: sys.NodeIDs()})
			}
			if discount {
				for _, a := range []remo.AttrID{1, 2, 3} {
					if err := p.SetPredictionRate(a, 0.2); err != nil {
						t.Fatal(err)
					}
				}
			}
			if plan {
				if _, err := p.Plan(); err != nil {
					t.Fatal(err)
				}
			}
			mon, err := p.StartMonitor(remo.MonitorConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = mon.Close() }()
			return mon.Fingerprint()
		}
		if got, want := boot(true), boot(false); got != want {
			t.Fatalf("discount=%v: booted %#x after Plan, %#x without", discount, got, want)
		}
	}
}

// exported is the plan's topology as Export writes it: every tree's
// attributes and edges.
func exported(t *testing.T, pl *remo.Plan) string {
	t.Helper()
	var sb strings.Builder
	if err := pl.Export(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestStartMonitorHonorsBaseline: a baseline planner's session boots the
// forest Plan evaluates for its fixed partition, not REMO's searched one.
func TestStartMonitorHonorsBaseline(t *testing.T) {
	for _, b := range []remo.Baseline{remo.BaselineSingletonSet, remo.BaselineOneSet} {
		sys := testSystem(t)
		p := remo.NewPlanner(sys, remo.WithBaseline(b))
		p.MustAddTask(remo.Task{Name: "wide", Attrs: []remo.AttrID{1, 2, 3, 4}, Nodes: allNodes(sys)})
		mon, err := p.StartMonitor(remo.MonitorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = mon.Close() }()
		plan, err := p.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := exported(t, mon.Plan()), exported(t, plan); got != want {
			t.Errorf("baseline %d: session booted\n%s\nPlan evaluates\n%s", b, got, want)
		}
	}
}

// TestSetTasksKeepsBaseline: a baseline session's SetTasks re-evaluates
// the baseline's partition of the new task set — one tree per attribute,
// or one tree for all — under the incremental and the adaptive scheme,
// across a task change that adds an attribute and one that removes it.
// The installed forest is exactly what Plan evaluates for that task set.
func TestSetTasksKeepsBaseline(t *testing.T) {
	base := []remo.Task{{Name: "narrow", Attrs: []remo.AttrID{1, 2, 3}, Nodes: []remo.NodeID{1, 2, 3, 4, 5, 6, 7, 8}}}
	grown := append(slices.Clone(base), remo.Task{Name: "more", Attrs: []remo.AttrID{2, 4}, Nodes: []remo.NodeID{5, 6, 7, 8, 9, 10, 11, 12}})
	for _, b := range []remo.Baseline{remo.BaselineSingletonSet, remo.BaselineOneSet} {
		for _, scheme := range []remo.AdaptScheme{remo.AdaptIncremental, remo.AdaptAdaptive} {
			sys := testSystem(t)
			p := remo.NewPlanner(sys, remo.WithBaseline(b))
			for _, task := range base {
				p.MustAddTask(task)
			}
			mon, err := p.StartMonitor(remo.MonitorConfig{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			for step, tasks := range [][]remo.Task{grown, base} {
				if _, err := mon.SetTasks(tasks); err != nil {
					t.Fatal(err)
				}
				fresh := remo.NewPlanner(sys, remo.WithBaseline(b))
				for _, task := range tasks {
					fresh.MustAddTask(task)
				}
				want, err := fresh.Plan()
				if err != nil {
					t.Fatal(err)
				}
				got := mon.Plan()
				for _, tr := range got.Trees() {
					if b == remo.BaselineSingletonSet && len(tr.Attrs) != 1 {
						t.Errorf("baseline %d, %s, step %d: tree delivers %v, want one attribute", b, scheme, step, tr.Attrs)
					}
				}
				if b == remo.BaselineOneSet && len(got.Trees()) != 1 {
					t.Errorf("baseline %d, %s, step %d: %d trees, want one", b, scheme, step, len(got.Trees()))
				}
				if g, w := exported(t, got), exported(t, want); g != w {
					t.Errorf("baseline %d, %s, step %d: session installed\n%s\nPlan evaluates\n%s", b, scheme, step, g, w)
				}
			}
			_ = mon.Close()
		}
	}
}

// TestPlanRepairPreviewsLiveRepair: Plan.Repair rebuilds trees with the
// planner's tree builder, so whatever the tree scheme its preview is the
// forest a session installs once it detects the same failure.
func TestPlanRepairPreviewsLiveRepair(t *testing.T) {
	for _, scheme := range []struct {
		name string
		opt  remo.PlannerOption
	}{
		{"adaptive", remo.WithTreeScheme(remo.TreeAdaptive)},
		{"star", remo.WithTreeScheme(remo.TreeStar)},
		{"chain", remo.WithTreeScheme(remo.TreeChain)},
	} {
		t.Run(scheme.name, func(t *testing.T) {
			sys := testSystem(t)
			p := remo.NewPlanner(sys, scheme.opt)
			p.MustAddTask(remo.Task{Name: "all", Attrs: []remo.AttrID{1, 2, 3}, Nodes: allNodes(sys)})
			plan, err := p.Plan()
			if err != nil {
				t.Fatal(err)
			}
			victim := plan.Trees()[0].Root
			preview, _, err := plan.Repair([]remo.NodeID{victim})
			if err != nil {
				t.Fatal(err)
			}
			mon, err := p.StartMonitor(remo.MonitorConfig{
				Chaos:   &remo.ChaosConfig{CrashWindows: downFrom(map[remo.NodeID]int{victim: 2})},
				Failure: &remo.FailurePolicy{SuspicionRounds: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = mon.Close() }()
			for mon.Round() < 20 && len(mon.Failed()) == 0 {
				if _, err := mon.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if reps := mon.Report().Repairs; len(reps) != 1 || !reflect.DeepEqual(reps[0].Failed, []remo.NodeID{victim}) {
				t.Fatalf("repairs = %+v, want one around %v", reps, victim)
			}
			if got, want := exported(t, mon.Plan()), exported(t, preview); got != want {
				t.Fatalf("live repair installed %+v, Plan.Repair previewed %+v", mon.Plan().Trees(), preview.Trees())
			}
		})
	}
}
