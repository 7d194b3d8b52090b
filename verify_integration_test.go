package remo_test

import (
	"math"
	"math/rand"
	"testing"

	"remo"
)

// genPlanner builds a seeded random planner: a system with a
// seed-derived size and capacity spread, and a handful of tasks over
// random node subsets.
func genPlanner(t *testing.T, seed int64) (*remo.Planner, []remo.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nNodes := 12 + rng.Intn(24)
	nAttrs := 2 + rng.Intn(5)
	attrs := make([]remo.AttrID, nAttrs)
	for i := range attrs {
		attrs[i] = remo.AttrID(i + 1)
	}
	nodes := make([]remo.Node, nNodes)
	ids := make([]remo.NodeID, nNodes)
	for i := range nodes {
		ids[i] = remo.NodeID(i + 1)
		nodes[i] = remo.Node{
			ID:       ids[i],
			Capacity: 120 + 280*rng.Float64(),
			Attrs:    attrs,
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: float64(nNodes) * 20,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := remo.NewPlanner(sys, remo.WithVerification())
	nTasks := 2 + rng.Intn(4)
	names := []string{"cpu", "mem", "disk", "net", "req", "err"}
	for i := 0; i < nTasks; i++ {
		subset := append([]remo.NodeID(nil), ids...)
		rng.Shuffle(len(subset), func(a, b int) { subset[a], subset[b] = subset[b], subset[a] })
		subset = subset[:1+rng.Intn(len(subset))]
		taskAttrs := append([]remo.AttrID(nil), attrs...)
		rng.Shuffle(len(taskAttrs), func(a, b int) { taskAttrs[a], taskAttrs[b] = taskAttrs[b], taskAttrs[a] })
		taskAttrs = taskAttrs[:1+rng.Intn(len(taskAttrs))]
		p.MustAddTask(remo.Task{Name: names[i], Attrs: taskAttrs, Nodes: subset})
	}
	return p, ids
}

// TestVerifiedChaosMonitorSessions drives generated workloads through
// full self-healing Monitor sessions — crashes, recoveries, message
// loss and delay — with the verification harness armed: every planned
// topology, every repaired hot-swap, and the final live results are
// cross-checked by the independent invariant checker.
func TestVerifiedChaosMonitorSessions(t *testing.T) {
	const sessions = 12
	repaired := 0
	for seed := int64(7000); seed < 7000+sessions; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0xbeef))
		p, ids := genPlanner(t, seed)

		// Sanity: the planner-side verification also passes standalone.
		pl, err := p.Plan()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := pl.Verify(); err != nil {
			t.Fatalf("seed %d: plan verification: %v", seed, err)
		}

		rounds := 24 + rng.Intn(16)
		cc := &remo.ChaosConfig{
			DropProb:     rng.Float64() * 0.15,
			DelayProb:    rng.Float64() * 0.15,
			Seed:         uint64(seed),
			CrashWindows: map[remo.NodeID][]remo.ChaosWindow{},
		}
		// Crash 1-3 nodes mid-run; recover some so reintegration rewires
		// get verified too.
		shuffled := append([]remo.NodeID(nil), ids...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		for i := 0; i < 1+rng.Intn(3) && i < len(shuffled); i++ {
			at := 4 + rng.Intn(rounds/2)
			w := remo.ChaosWindow{From: at, To: math.MaxInt}
			if rng.Intn(2) == 0 {
				w.To = at + 6 + rng.Intn(6)
			}
			cc.CrashWindows[shuffled[i]] = []remo.ChaosWindow{w}
		}

		mon, err := p.StartMonitor(remo.MonitorConfig{
			Seed:    uint64(seed),
			Chaos:   cc,
			Failure: &remo.FailurePolicy{SuspicionRounds: 2},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := mon.Run(rounds); err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		rep := mon.Report()
		if err := mon.Verify(); err != nil {
			t.Fatalf("seed %d: %v (report %+v)", seed, err, rep)
		}
		if len(rep.Repairs) > 0 {
			repaired++
		}
		if err := mon.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
	// The point of the chaos sessions is verifying repaired hot-swaps;
	// if the schedules stop triggering repairs, the test is vacuous.
	if repaired < sessions/2 {
		t.Fatalf("only %d/%d sessions exercised a repair rewire", repaired, sessions)
	}
}

// TestVerifiedDeploy checks a session's result verification with the
// harness armed, with and without chaos, the topology left unrepaired.
func TestVerifiedDeploy(t *testing.T) {
	p, _ := genPlanner(t, 7777)
	for _, cfg := range []remo.MonitorConfig{
		{Seed: 1},
		{
			Seed:    2,
			Chaos:   &remo.ChaosConfig{DropProb: 0.2, DelayProb: 0.1, Seed: 3},
			Failure: &remo.FailurePolicy{DisableRepair: true},
		},
	} {
		mon, err := p.StartMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = mon.Run(10)
		if err == nil {
			err = mon.Verify()
		}
		_ = mon.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
	}
}
