package remo_test

import (
	"sync"
	"testing"

	"remo"
)

// TestRepeatedFlappingRecovery crashes and recovers the same node N
// times (chaos crash windows) and requires the self-healing loop to
// track every cycle: one death declaration and one reintegration per
// window, the topology verified after every rewire, and the node ends
// the run reintegrated — present in the plan, absent from the dead set.
func TestRepeatedFlappingRecovery(t *testing.T) {
	const (
		flaps     = 3
		suspicion = 2
		rounds    = 60
	)
	flappy := remo.NodeID(5)
	windows := make([]remo.ChaosWindow, flaps)
	for i := range windows {
		// Down [10,16), [26,32), [42,48): six-round outages, ten-round
		// recoveries — both comfortably wider than the suspicion window.
		windows[i] = remo.ChaosWindow{From: 10 + 16*i, To: 16 + 16*i}
	}

	sys := bigSystem(t, 16)
	// WithVerification makes the monitor cross-check every hot-swapped
	// topology (verify.Plan after each rewire); a failure surfaces in Run.
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})

	// Record which rounds deliver the flappy node's values, to check
	// collection behaviorally resumes after the final reintegration.
	var obsMu sync.Mutex
	lastSeen := -1
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed: 11,
		Chaos: &remo.ChaosConfig{
			CrashWindows: map[remo.NodeID][]remo.ChaosWindow{flappy: windows},
		},
		Failure: &remo.FailurePolicy{SuspicionRounds: suspicion},
		OnValue: func(pair remo.Pair, round int, value float64) {
			if pair.Node == flappy {
				obsMu.Lock()
				if round > lastSeen {
					lastSeen = round
				}
				obsMu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(rounds); err != nil {
		t.Fatal(err)
	}
	if err := mon.Verify(); err != nil {
		t.Fatal(err)
	}

	rep := mon.Report()
	if rep.FailuresDetected != flaps {
		t.Fatalf("failures = %d, want one per flap (%d): %+v",
			rep.FailuresDetected, flaps, rep.Repairs)
	}
	if rep.NodesRecovered != flaps {
		t.Fatalf("recoveries = %d, want one per flap (%d): %+v",
			rep.NodesRecovered, flaps, rep.Repairs)
	}
	// Exactly one reintegration per cycle — a flapping node must not be
	// reintegrated twice for the same recovery.
	reint := 0
	for _, ev := range rep.Repairs {
		for _, n := range ev.Recovered {
			if n == flappy {
				reint++
			}
		}
		for _, n := range ev.Failed {
			if n != flappy {
				t.Fatalf("unrelated node %v declared dead: %+v", n, ev)
			}
		}
	}
	if reint != flaps {
		t.Fatalf("node reintegrated %d times, want %d", reint, flaps)
	}
	// The run ends with the node alive and reintegrated: the dead set is
	// empty and its values flowed again after the final recovery window.
	if failed := mon.Failed(); len(failed) != 0 {
		t.Fatalf("dead set not empty at end of run: %v", failed)
	}
	obsMu.Lock()
	defer obsMu.Unlock()
	if lastSeen <= windows[flaps-1].To {
		t.Fatalf("flappy node last collected at round %d, want after its final window (ends %d)",
			lastSeen, windows[flaps-1].To)
	}
}

// TestFlapRestoresAsidePlanAcrossSetTasks: a node fails after a task
// swap (so the plan in force came out of the incremental replanner),
// another swap plans beside running rounds during its outage, and the
// node recovers. The recovery must not search: it restores the plan the
// repair set aside, carried forward through the outage's swap — the very
// plan a session that never saw the failure holds after the same two
// swaps.
func TestFlapRestoresAsidePlanAcrossSetTasks(t *testing.T) {
	const suspicion = 2
	flappy := remo.NodeID(5)
	sys := bigSystem(t, 16)
	all := sys.NodeIDs()
	t0 := []remo.Task{{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: all}}
	t1 := append(t0[:1:1], remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: all[:10]})
	t2 := append(t1[:2:2], remo.Task{Name: "disk", Attrs: []remo.AttrID{3}, Nodes: all[3:12]})

	start := func(chaos *remo.ChaosConfig) *remo.Monitor {
		p := remo.NewPlanner(sys, remo.WithVerification())
		for _, task := range t0 {
			p.MustAddTask(task)
		}
		mon, err := p.StartMonitor(remo.MonitorConfig{
			Seed:    11,
			Chaos:   chaos,
			Failure: &remo.FailurePolicy{SuspicionRounds: suspicion},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = mon.Close() })
		return mon
	}
	setTasks := func(mon *remo.Monitor, tasks []remo.Task) {
		if _, err := mon.SetTasks(tasks); err != nil {
			t.Fatal(err)
		}
	}
	run := func(mon *remo.Monitor, n int) {
		if err := mon.Run(n); err != nil {
			t.Fatal(err)
		}
	}

	// The reference never fails: its plan after the two swaps is what
	// the flapping session's recovery must restore.
	ref := start(nil)
	setTasks(ref, t1)
	setTasks(ref, t2)
	want := ref.Fingerprint()

	mon := start(&remo.ChaosConfig{
		CrashWindows: map[remo.NodeID][]remo.ChaosWindow{flappy: {{From: 8, To: 50}}},
	})
	setTasks(mon, t1)
	run(mon, 14)
	if failed := mon.Failed(); len(failed) != 1 || failed[0] != flappy {
		t.Fatalf("dead set %v before the outage's swap, want [%v]", failed, flappy)
	}
	// The outage's swap plans (and carries the set-aside plan forward)
	// while rounds run; all of them end before the node comes back.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := mon.Run(20); err != nil {
			t.Error(err)
		}
	}()
	setTasks(mon, t2)
	wg.Wait()
	if mon.Fingerprint() == want {
		t.Fatal("the outage plan already equals the carried-forward plan: the test cannot tell a restore")
	}
	run(mon, 26)
	if failed := mon.Failed(); len(failed) != 0 {
		t.Fatalf("dead set %v after the outage, want empty", failed)
	}
	if rep := mon.Report(); rep.NodesRecovered != 1 {
		t.Fatalf("recoveries = %d, want 1: %+v", rep.NodesRecovered, rep.Repairs)
	}
	if evals := remo.LastPlanEvaluations(mon); evals != 0 {
		t.Fatalf("the recovery searched (%d evaluations), want the set-aside plan restored", evals)
	}
	if got := mon.Fingerprint(); got != want {
		t.Fatalf("recovered forest %#x, carried-forward plan %#x", got, want)
	}
	if err := mon.Verify(); err != nil {
		t.Fatal(err)
	}
}
