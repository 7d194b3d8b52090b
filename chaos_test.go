package remo_test

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"remo"
)

// bigSystem builds an n-node system with ample per-node capacity so
// repairs always have room to rebuild.
func bigSystem(t *testing.T, n int) *remo.System {
	t.Helper()
	nodes := make([]remo.Node, n)
	for i := range nodes {
		nodes[i] = remo.Node{
			ID:       remo.NodeID(i + 1),
			Capacity: 400,
			Attrs:    []remo.AttrID{1, 2, 3},
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: 5000,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// downFrom schedules each node's crash at the given round, never to
// recover: a crash window that never closes.
func downFrom(at map[remo.NodeID]int) map[remo.NodeID][]remo.ChaosWindow {
	out := make(map[remo.NodeID][]remo.ChaosWindow, len(at))
	for n, r := range at {
		out[n] = []remo.ChaosWindow{{From: r, To: math.MaxInt}}
	}
	return out
}

// TestChaosSelfHealingEndToEnd is the acceptance run: kill over 20% of
// the nodes mid-session under the adaptive scheme, and require that the
// runtime detects each death within the suspicion window, repairs the
// topology automatically, and keeps collecting from the survivors.
func TestChaosSelfHealingEndToEnd(t *testing.T) {
	const (
		nNodes    = 30
		crashRnd  = 8
		suspicion = 3
		rounds    = 40
	)
	sys := bigSystem(t, nNodes)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2, 3}, Nodes: sys.NodeIDs()})

	// Kill 7 of 30 nodes (23%) at round 8.
	crashed := []remo.NodeID{3, 7, 11, 15, 19, 23, 27}
	crashAt := make(map[remo.NodeID]int, len(crashed))
	for _, n := range crashed {
		crashAt[n] = crashRnd
	}

	goroutinesBefore := runtime.NumGoroutine()

	// Observe what the collector accepts in the final rounds to verify
	// post-repair collection behaviorally, not just from planner stats.
	var obsMu sync.Mutex
	lateRows := make(map[remo.Pair]struct{})
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Scheme:  remo.AdaptAdaptive,
		Seed:    42,
		Chaos:   &remo.ChaosConfig{CrashWindows: downFrom(crashAt)},
		Failure: &remo.FailurePolicy{SuspicionRounds: suspicion},
		OnValue: func(pair remo.Pair, round int, value float64) {
			if round >= rounds-10 {
				obsMu.Lock()
				lateRows[pair] = struct{}{}
				obsMu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(rounds); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	// Every crashed node was detected, within the suspicion window.
	if rep.FailuresDetected != len(crashed) {
		t.Fatalf("detected %d failures, want %d (repairs: %+v)",
			rep.FailuresDetected, len(crashed), rep.Repairs)
	}
	if len(rep.Repairs) == 0 {
		t.Fatal("no automatic repairs recorded")
	}
	seen := make(map[remo.NodeID]bool)
	for _, ev := range rep.Repairs {
		for _, n := range ev.Failed {
			seen[n] = true
			// Crash at round 8, last beat round 7: declaration is due at
			// round 7+suspicion; the repair lands that same step.
			if ev.Round > crashRnd+suspicion {
				t.Fatalf("node %v repaired at round %d, want <= %d",
					n, ev.Round, crashRnd+suspicion)
			}
		}
		if len(ev.Failed) > 0 && ev.DetectionRounds > suspicion {
			t.Fatalf("detection latency %d exceeds suspicion window %d",
				ev.DetectionRounds, suspicion)
		}
	}
	for _, n := range crashed {
		if !seen[n] {
			t.Fatalf("crashed node %v missing from repair events %+v", n, rep.Repairs)
		}
	}

	// Post-repair planned coverage of surviving pairs stays >= 95%.
	final := rep.Repairs[len(rep.Repairs)-1]
	if final.CoverageAfter < 95 {
		t.Fatalf("post-repair coverage %.1f%%, want >= 95%%", final.CoverageAfter)
	}

	// Behavioral check: the last 10 rounds still deliver values from at
	// least 95% of surviving collectible pairs.
	survivingPairs := (nNodes - len(crashed)) * 3
	obsMu.Lock()
	got := len(lateRows)
	obsMu.Unlock()
	if 100*got < 95*survivingPairs {
		t.Fatalf("late-phase delivery from %d pairs, want >= 95%% of %d",
			got, survivingPairs)
	}
	// And the dead stayed pruned: no crashed node delivers post-repair.
	obsMu.Lock()
	for pair := range lateRows {
		for _, n := range crashed {
			if pair.Node == n {
				t.Fatalf("dead node %v delivered value post-repair", n)
			}
		}
	}
	obsMu.Unlock()

	// No goroutine leaks once the session closes.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutinesBefore {
		t.Fatalf("goroutine leak: %d before, %d after close", goroutinesBefore, now)
	}
}

// TestChaosSelfHealingOverTCP runs a smaller kill schedule over the
// loopback TCP transport: the hardened Send path must survive the crash
// and repair cycle exactly like the memory transport.
func TestChaosSelfHealingOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP chaos session skipped in short mode")
	}
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})

	mon, err := p.StartMonitor(remo.MonitorConfig{
		UseTCP:  true,
		Chaos:   &remo.ChaosConfig{CrashWindows: downFrom(map[remo.NodeID]int{4: 5, 9: 5})},
		Failure: &remo.FailurePolicy{SuspicionRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(20); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.FailuresDetected != 2 {
		t.Fatalf("detected %d failures over TCP, want 2", rep.FailuresDetected)
	}
	if len(rep.Repairs) == 0 {
		t.Fatal("no repairs over TCP")
	}
}

// TestChaosRecoveryReintegratesNode closes the full loop: crash, repair,
// recover, reintegrate.
func TestChaosRecoveryReintegratesNode(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1, 2}, Nodes: sys.NodeIDs()})

	mon, err := p.StartMonitor(remo.MonitorConfig{
		Chaos: &remo.ChaosConfig{
			CrashWindows: map[remo.NodeID][]remo.ChaosWindow{5: {{From: 4, To: 12}}},
		},
		Failure: &remo.FailurePolicy{SuspicionRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(25); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.FailuresDetected != 1 || rep.NodesRecovered != 1 {
		t.Fatalf("failures %d, recoveries %d, want 1 and 1",
			rep.FailuresDetected, rep.NodesRecovered)
	}
	if got := mon.Failed(); len(got) != 0 {
		t.Fatalf("Failed() = %v after reintegration", got)
	}
	// The reintegration event restores full coverage.
	final := rep.Repairs[len(rep.Repairs)-1]
	if len(final.Recovered) != 1 || final.Recovered[0] != 5 {
		t.Fatalf("final repair event = %+v, want recovery of node 5", final)
	}
	if final.CoverageAfter < 99 {
		t.Fatalf("coverage after reintegration %.1f%%, want ~100%%", final.CoverageAfter)
	}
}

// TestChaosDetectionOnlyPolicy verifies DisableRepair: failures are
// reported but the topology is left alone.
func TestChaosDetectionOnlyPolicy(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})

	mon, err := p.StartMonitor(remo.MonitorConfig{
		Chaos:   &remo.ChaosConfig{CrashWindows: downFrom(map[remo.NodeID]int{3: 4})},
		Failure: &remo.FailurePolicy{SuspicionRounds: 2, DisableRepair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(15); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.FailuresDetected != 1 {
		t.Fatalf("detected %d failures, want 1", rep.FailuresDetected)
	}
	if len(rep.Repairs) != 0 {
		t.Fatalf("repairs happened despite DisableRepair: %+v", rep.Repairs)
	}
	if got := mon.Failed(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Failed() = %v, want [3]", got)
	}
}

// TestChaosMonitorConcurrency races Run, SetTasks, Report and Close.
func TestChaosMonitorConcurrency(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})

	mon, err := p.StartMonitor(remo.MonitorConfig{
		Chaos:   &remo.ChaosConfig{CrashWindows: downFrom(map[remo.NodeID]int{2: 5})},
		Failure: &remo.FailurePolicy{SuspicionRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := mon.Run(3); err != nil {
				return // closed under us: expected
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			_, _ = mon.SetTasks([]remo.Task{
				{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()},
				{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()[:6]},
			})
			_ = mon.Report()
			_ = mon.Round()
		}
	}()
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		_ = mon.Report()
		_ = mon.Close()
	}()
	wg.Wait()
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosScheduleRefused pins the rules StartMonitor refuses a fault
// schedule by: one they would silently drop, or whose crash
// nothing could ever resume.
func TestChaosScheduleRefused(t *testing.T) {
	sys := regionSystem(t, 2, 4)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	flap := func(a, b string) map[remo.ChaosRegionLink][]remo.ChaosWindow {
		return map[remo.ChaosRegionLink][]remo.ChaosWindow{remo.ChaosNormLink(a, b): {{From: 2, To: 4}}}
	}
	for _, tc := range []struct {
		name   string
		chaos  remo.ChaosConfig
		shards int
		// journal runs the session durable.
		journal bool
		want    string
	}{
		{"collector crash on a sharded tier", remo.ChaosConfig{CollectorCrashAt: 5}, 4, true, "root never dies"},
		{"collector crash without a journal", remo.ChaosConfig{CollectorCrashAt: 5}, 1, false, "requires a journal"},
		{"shard crash on a lone collector", remo.ChaosConfig{ShardCrashAt: map[int]int{0: 5}}, 1, true, "requires a sharded tier"},
		{"shard crash past the last shard", remo.ChaosConfig{ShardCrashAt: map[int]int{4: 5}}, 4, true, "not in [0, 4)"},
		{"negative shard crash", remo.ChaosConfig{ShardCrashAt: map[int]int{-1: 5}}, 4, true, "not in [0, 4)"},
		{"shard crash without a journal", remo.ChaosConfig{ShardCrashAt: map[int]int{1: 5}}, 4, false, "requires a journal"},
		{"partition of an unknown region", remo.ChaosConfig{RegionPartitions: map[string][]remo.ChaosWindow{"r7": {{From: 2, To: 4}}}}, 1, false, `"r7"`},
		{"flap of an unknown region", remo.ChaosConfig{LinkFlaps: flap("r0", "east")}, 1, false, `"east"`},
		{"drop probability over 1", remo.ChaosConfig{DropProb: 1.5}, 1, false, "[0, 1]"},
		{"negative delay probability", remo.ChaosConfig{DelayProb: -0.1}, 1, false, "[0, 1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := remo.MonitorConfig{Chaos: &tc.chaos, Shards: tc.shards}
			if tc.journal {
				cfg.Journal = t.TempDir()
			}
			mon, err := p.StartMonitor(cfg)
			if err == nil {
				_ = mon.Close()
				t.Fatal("StartMonitor accepted the schedule")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("StartMonitor: %v, want %q", err, tc.want)
			}
		})
	}
}

// TestChaosConfigLeftUntouched checks a session reads the caller's fault
// schedule and never writes it: after a session ran it, it still
// deep-equals what was passed in.
func TestChaosConfigLeftUntouched(t *testing.T) {
	sys := regionSystem(t, 2, 4)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	schedule := func() *remo.ChaosConfig {
		return &remo.ChaosConfig{
			CrashWindows:     map[remo.NodeID][]remo.ChaosWindow{2: {{From: 3, To: 6}}},
			RegionPartitions: map[string][]remo.ChaosWindow{remo.RegionName(1): {{From: 4, To: 8}}},
			DropProb:         0.05,
			Seed:             3,
		}
	}
	cc := schedule()
	mon, err := p.StartMonitor(remo.MonitorConfig{Chaos: cc, Failure: &remo.FailurePolicy{SuspicionRounds: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cc, schedule()) {
		t.Fatalf("the caller's chaos config was written: %+v", *cc)
	}
}
