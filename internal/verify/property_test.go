package verify_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"remo/internal/chaos"
	"remo/internal/cluster"
	"remo/internal/core"
	"remo/internal/model"
	"remo/internal/repair"
	"remo/internal/verify"
	"remo/internal/workload"
)

// propertySeeds is how many generated instances each property runs
// over. Together with the chaos property below this keeps the package
// above the "≥ 50 generated workloads" bar on its own.
const propertySeeds = 60

// TestPropertyGeneratedPlansVerify is the core property: for any
// generated workload, the planner's output passes the full invariant
// checker (structure, ownership, capacity, accounting). Failures are
// shrunk to a minimal reproducing instance before reporting.
func TestPropertyGeneratedPlansVerify(t *testing.T) {
	fails := func(in workload.Instance) bool {
		d, err := in.Demand()
		if err != nil {
			return false
		}
		res := core.NewPlanner().Plan(in.Sys, d)
		return verify.Claims(verify.Context{Sys: in.Sys, Demand: d}, res.Forest, res.Stats) != nil
	}
	for seed := int64(0); seed < propertySeeds; seed++ {
		in, err := workload.Generate(workload.DefaultBounds(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d, err := in.Demand()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := core.NewPlanner().Plan(in.Sys, d)
		if err := verify.Claims(verify.Context{Sys: in.Sys, Demand: d}, res.Forest, res.Stats); err != nil {
			min := workload.Minimize(in, fails)
			t.Fatalf("%v fails verification: %v\nminimized reproduction: %v", in, err, min)
		}
	}
}

// TestPropertyRaisingCapacityNeverHurts is metamorphic: giving one node
// a strictly larger budget can only widen the feasible region, so the
// planner's collected pair count must not decrease.
func TestPropertyRaisingCapacityNeverHurts(t *testing.T) {
	for seed := int64(100); seed < 100+propertySeeds/2; seed++ {
		in, err := workload.Generate(workload.DefaultBounds(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d, err := in.Demand()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := core.NewPlanner()
		before := p.Plan(in.Sys, d)

		rng := rand.New(rand.NewSource(seed))
		raised := in.Sys.Clone()
		i := rng.Intn(len(raised.Nodes))
		raised.Nodes[i].Capacity *= 4

		after := p.Plan(raised, d)
		if after.Stats.Collected < before.Stats.Collected {
			t.Fatalf("%v: raising node %d capacity ×4 dropped coverage %d → %d",
				in, raised.Nodes[i].ID, before.Stats.Collected, after.Stats.Collected)
		}
		if err := verify.Claims(verify.Context{Sys: raised, Demand: d}, after.Forest, after.Stats); err != nil {
			t.Fatalf("%v: raised-capacity plan fails verification: %v", in, err)
		}
	}
}

// TestPropertyAddingTaskKeepsPlanFeasible is metamorphic: growing the
// workload by one task must never produce a capacity-violating plan —
// the planner sheds coverage instead of overdrawing budgets.
func TestPropertyAddingTaskKeepsPlanFeasible(t *testing.T) {
	for seed := int64(200); seed < 200+propertySeeds/2; seed++ {
		in, err := workload.Generate(workload.DefaultBounds(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		extra := workload.Tasks(in.Sys, workload.TaskConfig{
			Count:        1,
			AttrsPerTask: 1 + int(seed)%3,
			NodesPerTask: 1 + int(seed)%5,
			Seed:         seed + 7919,
			Prefix:       "extra",
		})
		d, err := workload.Demand(in.Sys, append(in.Tasks, extra...))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := core.NewPlanner().Plan(in.Sys, d)
		if err := verify.Claims(verify.Context{Sys: in.Sys, Demand: d}, res.Forest, res.Stats); err != nil {
			t.Fatalf("%v + 1 task fails verification: %v", in, err)
		}
	}
}

// TestPropertyRepairYieldsValidPlan is metamorphic: repairing a plan
// after an arbitrary subset of placed nodes dies must yield a plan that
// passes the invariant checker against the pruned demand.
func TestPropertyRepairYieldsValidPlan(t *testing.T) {
	for seed := int64(300); seed < 300+propertySeeds/2; seed++ {
		in, err := workload.Generate(workload.DefaultBounds(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d, err := in.Demand()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := core.NewPlanner().Plan(in.Sys, d)

		// Kill ~20% of placed nodes, at least one.
		var placed []model.NodeID
		for n := range res.Stats.Usage {
			placed = append(placed, n)
		}
		if len(placed) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(placed), func(i, j int) { placed[i], placed[j] = placed[j], placed[i] })
		kill := 1 + len(placed)/5
		failed := make(map[model.NodeID]struct{}, kill)
		for _, n := range placed[:kill] {
			failed[n] = struct{}{}
		}

		healed, _ := repair.Repair(repair.Config{Sys: in.Sys, Demand: d}, res.Forest, failed)
		pruned, _ := repair.Prune(d, failed)
		if err := verify.Plan(verify.Context{Sys: in.Sys, Demand: pruned}, healed); err != nil {
			t.Fatalf("%v: healed plan after killing %d nodes fails verification: %v",
				in, kill, err)
		}
		for _, tr := range healed.Trees {
			for _, n := range tr.Members() {
				if _, dead := failed[n]; dead {
					t.Fatalf("%v: healed plan still places dead node %d", in, n)
				}
			}
		}
	}
}

// TestPropertyChaosRunsVerifyResult drives generated workloads through
// the live emulation under randomized chaos (crashes, loss, delay) and
// cross-checks every reported Result.
func TestPropertyChaosRunsVerifyResult(t *testing.T) {
	for seed := int64(400); seed < 400+propertySeeds/4; seed++ {
		in, err := workload.Generate(workload.DefaultBounds(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d, err := in.Demand()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := core.NewPlanner().Plan(in.Sys, d)
		if len(res.Forest.Trees) == 0 {
			continue
		}

		rng := rand.New(rand.NewSource(seed))
		cfg := &chaos.Config{
			DropProb:       rng.Float64() * 0.3,
			DelayProb:      rng.Float64() * 0.2,
			MaxDelayRounds: 1 + rng.Intn(3),
			Seed:           uint64(seed) + 1,
			CrashWindows:   map[model.NodeID][]chaos.Window{},
		}
		// Crash up to two placed nodes mid-run.
		var placed []model.NodeID
		for n := range res.Stats.Usage {
			placed = append(placed, n)
		}
		rng.Shuffle(len(placed), func(i, j int) { placed[i], placed[j] = placed[j], placed[i] })
		rounds := 8 + rng.Intn(8)
		for i := 0; i < len(placed) && i < 2; i++ {
			cfg.CrashWindows[placed[i]] = []chaos.Window{{From: 2 + rng.Intn(rounds-2), To: rounds}}
		}

		out, err := cluster.Run(cluster.Config{
			Sys:             in.Sys,
			Forest:          res.Forest,
			Demand:          d,
			Rounds:          rounds,
			EnforceCapacity: true,
			Chaos:           cfg,
		})
		if err != nil {
			t.Fatalf("%v: cluster run: %v", in, err)
		}
		if err := verify.Result(verify.Context{Sys: in.Sys, Demand: d}, out); err != nil {
			t.Fatalf("%v: chaos result fails verification: %v", in, err)
		}
	}
}

// TestResultMutations proves the result checker is non-vacuous.
func TestResultMutations(t *testing.T) {
	in, err := workload.Generate(workload.DefaultBounds(), 42)
	if err != nil {
		t.Fatal(err)
	}
	d, err := in.Demand()
	if err != nil {
		t.Fatal(err)
	}
	res := core.NewPlanner().Plan(in.Sys, d)
	out, err := cluster.Run(cluster.Config{
		Sys: in.Sys, Forest: res.Forest, Demand: d,
		Rounds: 6, EnforceCapacity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := verify.Context{Sys: in.Sys, Demand: d}
	if err := verify.Result(ctx, out); err != nil {
		t.Fatalf("clean result fails verification: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*cluster.Result)
	}{
		{"demanded pairs", func(r *cluster.Result) { r.DemandedPairs++ }},
		{"covered beyond demanded", func(r *cluster.Result) { r.CoveredPairs = r.DemandedPairs + 1 }},
		{"covered without values", func(r *cluster.Result) { r.ValuesDelivered = 0 }},
		{"percent out of range", func(r *cluster.Result) { r.PercentCollected = 101 }},
		{"negative staleness", func(r *cluster.Result) { r.AvgStaleness = -1 }},
		{"NaN percent collected", func(r *cluster.Result) { r.PercentCollected = math.NaN() }},
		{"NaN error", func(r *cluster.Result) { r.AvgPercentError = math.NaN() }},
		{"NaN staleness", func(r *cluster.Result) { r.AvgStaleness = math.NaN() }},
		{"negative suppression counter", func(r *cluster.Result) { r.MarkersLost = -1 }},
		{"suppressed beyond observed", func(r *cluster.Result) {
			r.ValuesSuppressed = r.ValuesObserved + 1
		}},
		{"imputed beyond suppressed", func(r *cluster.Result) {
			r.ValuesSuppressed = 2
			r.ValuesObserved = 4
			r.ValuesImputed = 2
			r.MarkersLost = 1
		}},
		{"impute outside band", func(r *cluster.Result) {
			r.ValuesObserved = 4
			r.ValuesSuppressed = 2
			r.ValuesImputed = 2
			r.ImputeBandMax = 1.5
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tampered := out
			tc.mutate(&tampered)
			if err := verify.Result(ctx, tampered); !errors.Is(err, verify.ErrResult) {
				t.Fatalf("tampered result not flagged: got %v, want ErrResult", err)
			}
		})
	}
}

// TestNaNSampleStaysFinite feeds one NaN sample into a run: the pair
// scores full error that round, and the averages stay finite and verify.
func TestNaNSampleStaysFinite(t *testing.T) {
	in, err := workload.Generate(workload.DefaultBounds(), 42)
	if err != nil {
		t.Fatal(err)
	}
	d, err := in.Demand()
	if err != nil {
		t.Fatal(err)
	}
	res := core.NewPlanner().Plan(in.Sys, d)
	// Poison a pair a tree root reports: its own frame reaches the
	// collector the round it is sent.
	collected := res.Forest.CollectedPairs(d)
	poisoned := collected[0]
	for _, p := range collected {
		if res.Forest.TreeFor(p.Attr).Root() == p.Node {
			poisoned = p
			break
		}
	}
	src := cluster.ValueFunc(func(n model.NodeID, a model.AttrID, r int) float64 {
		if n == poisoned.Node && a == poisoned.Attr && r == 3 {
			return math.NaN()
		}
		return 100 + float64(r)
	})
	out, err := cluster.Run(cluster.Config{
		Sys: in.Sys, Forest: res.Forest, Demand: d,
		Rounds: 20, EnforceCapacity: true, Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"AvgPercentError": out.AvgPercentError, "PercentCollected": out.PercentCollected,
		"AvgStaleness": out.AvgStaleness,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v after one NaN sample", name, v)
		}
	}
	if err := verify.Result(verify.Context{Sys: in.Sys, Demand: d}, out); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsStaleDemandAfterPrune pins the documented contract
// that Result must be checked against the currently installed demand:
// after pruning, the old demand recounts to a different pair total.
func TestVerifyRejectsStaleDemandAfterPrune(t *testing.T) {
	in, err := workload.Generate(workload.DefaultBounds(), 17)
	if err != nil {
		t.Fatal(err)
	}
	d, err := in.Demand()
	if err != nil {
		t.Fatal(err)
	}
	pruned := d.Clone()
	pairs := d.Pairs()
	if len(pairs) < 2 {
		t.Skip("demand too small to prune")
	}
	pruned.Remove(pairs[0].Node, pairs[0].Attr)

	if (verify.Context{Sys: in.Sys, Demand: d}).DemandedPairs() ==
		(verify.Context{Sys: in.Sys, Demand: pruned}).DemandedPairs() {
		t.Fatalf("pruning did not change the recounted demanded pairs")
	}
}
