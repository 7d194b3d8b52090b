package core

import (
	"fmt"
	"sync"
	"testing"

	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/partition"
	"remo/internal/task"
	"remo/internal/tree"
	"remo/internal/workload"
)

// planEnv generates one seeded workload through the same generators the
// figure experiments use. large toggles between the small-scale and
// large-scale task generator.
func planEnv(t testing.TB, seed int64, large bool) (*model.System, *task.Demand) {
	t.Helper()
	sys, err := workload.System(workload.SystemConfig{
		Nodes:      22,
		Attrs:      7,
		CapacityLo: 100,
		CapacityHi: 300,
		Cost:       cost.Model{PerMessage: 10, PerValue: 1},
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks []model.Task
	if large {
		tasks = workload.LargeTasks(sys, 4, seed+7)
	} else {
		tasks = workload.SmallTasks(sys, 14, seed+7)
	}
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return sys, d
}

// samePlan fails the test unless a and b are the same plan: equal
// score, equal partition, and edge-identical forests.
func samePlan(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Stats.Score() != b.Stats.Score() {
		t.Fatalf("%s: scores differ: %+v vs %+v", label, a.Stats.Score(), b.Stats.Score())
	}
	if len(a.Partition) != len(b.Partition) {
		t.Fatalf("%s: partition sizes differ: %d vs %d", label, len(a.Partition), len(b.Partition))
	}
	for i := range a.Partition {
		if !a.Partition[i].Equal(b.Partition[i]) {
			t.Fatalf("%s: partition set %d differs: %v vs %v",
				label, i, a.Partition[i], b.Partition[i])
		}
	}
	ea, eb := a.Forest.Edges(), b.Forest.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("%s: edge counts differ: %d vs %d", label, len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("%s: edge %d differs: %v vs %v", label, i, ea[i], eb[i])
		}
	}
}

// TestParallelPlannerDeterministic proves the parallel planner (2 and
// 8 workers, windowed evaluation, parallel multi-start) returns the
// exact plan of the sequential planner on 20 seeded random workloads
// from both workload generators.
func TestParallelPlannerDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, large := range []bool{false, true} {
			sys, d := planEnv(t, seed, large)
			seq := NewPlanner(WithWorkers(1)).Plan(sys, d)
			for _, w := range []int{2, 8} {
				label := fmt.Sprintf("seed=%d large=%v workers=%d", seed, large, w)
				par := NewPlanner(WithWorkers(w)).Plan(sys, d)
				samePlan(t, label, seq, par)
				if err := par.Forest.Validate(d, sys, nil); err != nil {
					t.Fatalf("%s: parallel plan invalid: %v", label, err)
				}
			}
		}
	}
}

// TestTreeCacheTransparent proves the tree-build memo changes nothing
// but work: with and without the memo the sequential planner returns
// the same plan, and on a non-trivial workload the memo actually hits.
func TestTreeCacheTransparent(t *testing.T) {
	sys, d := planEnv(t, 3, false)
	cached := NewPlanner(WithWorkers(1)).Plan(sys, d)
	uncached := NewPlanner(WithWorkers(1), WithoutTreeCache()).Plan(sys, d)
	samePlan(t, "memo on/off", cached, uncached)
	if cached.TreeReuses == 0 {
		t.Fatal("tree-build memo never hit on a multi-iteration search")
	}
	if cached.TreeBuilds >= uncached.TreeBuilds {
		t.Fatalf("memo did not reduce builds: %d cached vs %d uncached",
			cached.TreeBuilds, uncached.TreeBuilds)
	}
	if uncached.TreeReuses != 0 {
		t.Fatalf("disabled memo reported %d reuses", uncached.TreeReuses)
	}
}

// TestParallelEvaluationsCountBatches documents the telemetry contract:
// a parallel iteration launches the whole rank-ordered window that
// holds its adopted candidate (and every window before it), so the
// parallel Evaluations count is >= the sequential count, never smaller.
// TestParallelSpeculationBounded bounds it from above.
func TestParallelEvaluationsCountBatches(t *testing.T) {
	sys, d := planEnv(t, 5, false)
	seq := NewPlanner(WithWorkers(1)).Plan(sys, d)
	par := NewPlanner(WithWorkers(8)).Plan(sys, d)
	if par.Evaluations < seq.Evaluations {
		t.Fatalf("parallel launched fewer evaluations (%d) than sequential (%d)",
			par.Evaluations, seq.Evaluations)
	}
}

// TestParallelSpeculationBounded pins the window's speculation bound:
// every search iteration of a w-worker plan launches at least the
// sequential scan's evaluations and at most w-1 more. Worker counts
// never change the moves, so iteration k's launches are the difference
// between a search capped at k iterations and one capped at k-1.
func TestParallelSpeculationBounded(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, large := range []bool{false, true} {
			sys, d := planEnv(t, seed, large)
			universe := d.Universe()
			starts := map[string][]model.AttrSet{
				"SP": partition.Singleton(universe),
				"OP": partition.FirstFitAllowed(universe, nil),
			}
			for name, start := range starts {
				// total[w] holds a w-worker search's launches capped at
				// 0, 1, ... iterations; evals(w, k) is iteration k's share.
				total := map[int][]int{1: {1}, 2: {1}, 8: {1}} // iteration 0: the start's evaluation
				evals := func(w, k int) int {
					if len(total[w]) == k {
						res := NewPlanner(WithWorkers(w), WithMaxIters(k)).PlanFrom(sys, d, start)
						total[w] = append(total[w], res.Evaluations)
					}
					return total[w][k] - total[w][k-1]
				}
				for k := 1; ; k++ {
					seq := evals(1, k)
					for _, w := range []int{2, 8} {
						par := evals(w, k)
						if par < seq || par > seq+w-1 {
							t.Fatalf("seed=%d large=%v start=%s workers=%d iteration %d: launched %d evaluations, sequential %d (allowed %d..%d)",
								seed, large, name, w, k, par, seq, seq, seq+w-1)
						}
					}
					if seq == 0 {
						break
					}
				}
			}
		}
	}
}

// TestParallelReplanChurnDeterministic replays a task churn through
// the incremental replanner at 1, 2 and 8 workers and requires the same
// forest after every op: the scoped search and its full-search
// escalations run the same windowed scan as a boot plan, over one
// persistent evaluation cache.
func TestParallelReplanChurnDeterministic(t *testing.T) {
	sys, err := workload.System(workload.SystemConfig{
		Nodes: 20, Attrs: 8, CapacityLo: 100, CapacityHi: 250,
		CentralCapacity: 800,
		Cost:            cost.Model{PerMessage: 10, PerValue: 1},
		Seed:            31,
	})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 5 // create, modify, remove each: 15 ops
	base := workload.Tasks(sys, workload.TaskConfig{Count: 8, AttrsPerTask: 3, NodesPerTask: 6, Seed: 32})
	created := workload.Tasks(sys, workload.TaskConfig{Count: cycles, AttrsPerTask: 2, NodesPerTask: 4, Seed: 33, Prefix: "churn"})
	redrawn := workload.Tasks(sys, workload.TaskConfig{Count: cycles, AttrsPerTask: 2, NodesPerTask: 4, Seed: 34, Prefix: "churn"})
	var ops []*task.Demand
	for i := range created {
		modified := created[i]
		modified.Attrs = redrawn[i].Attrs
		for _, tasks := range [][]model.Task{
			append(append([]model.Task(nil), base...), created[i]),
			append(append([]model.Task(nil), base...), modified),
			base,
		} {
			op, err := workload.Demand(sys, tasks)
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, op)
		}
	}
	d0, err := workload.Demand(sys, base)
	if err != nil {
		t.Fatal(err)
	}

	replay := func(w int) (fps []uint64, scoped, full int) {
		r := NewReplanner(NewPlanner(WithWorkers(w)), sys, d0)
		fps = append(fps, r.Current().Forest.Fingerprint())
		for _, op := range ops {
			res, st := r.Update(op)
			fps = append(fps, res.Forest.Fingerprint())
			if st.Incremental {
				scoped++
			} else {
				full++
			}
		}
		return fps, scoped, full
	}
	want, scoped, full := replay(1)
	if scoped == 0 || full == 0 {
		t.Fatalf("churn took %d scoped and %d full updates; it must exercise both", scoped, full)
	}
	for _, w := range []int{2, 8} {
		got, _, _ := replay(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: forest after op %d is %#x, sequential %#x", w, i, got[i], want[i])
			}
		}
	}
}

// TestEvalCacheConcurrentHammer drives every cache surface from many
// goroutines at once; run under -race it proves the cache is safe for
// the concurrent evaluators (the scripts/check.sh gate runs it so).
func TestEvalCacheConcurrentHammer(t *testing.T) {
	sys, d := planEnv(t, 7, false)
	cache := newEvalCache(d, 0)
	universe := d.Universe().Attrs()
	builder := tree.New(tree.Star)

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Rotate through overlapping attr sets so goroutines
				// collide on the same keys.
				a := universe[(g+i)%len(universe)]
				b := universe[(g+i+1)%len(universe)]
				set := model.NewAttrSet(a, b)
				parts := cache.participantsOf(set)
				weights := cache.weightsOf(set)
				if len(weights) != len(parts) {
					t.Errorf("weights/participants out of sync: %d vs %d",
						len(weights), len(parts))
					return
				}
				avail := make(map[model.NodeID]float64, len(parts))
				for _, n := range parts {
					avail[n] = sys.Capacity(n)
				}
				key := buildTreeKey(set, parts, avail, sys.CentralCapacity)
				if cb, ok := cache.lookupTree(key); ok {
					if cb.tree == nil {
						t.Error("cached build lost its tree")
						return
					}
					_ = cb.tree.Clone()
					continue
				}
				r := builder.Build(tree.Context{
					Sys:          sys,
					Demand:       d,
					Attrs:        set,
					Nodes:        parts,
					Avail:        avail,
					CentralAvail: sys.CentralCapacity,
					LocalWeights: weights,
				})
				cache.storeTree(key, set, r)
			}
		}(g)
	}
	wg.Wait()

	if cache.builds.Load() == 0 {
		t.Fatal("hammer built no trees")
	}
}

// TestPlannerConcurrentUse runs several full parallel plans over the
// same shared system and demand at once — the facade allows concurrent
// Plan calls, and under -race this proves the planner never mutates
// shared inputs.
func TestPlannerConcurrentUse(t *testing.T) {
	sys, d := planEnv(t, 11, true)
	want := NewPlanner().Plan(sys, d)
	const planners = 4
	results := make([]Result, planners)
	var wg sync.WaitGroup
	wg.Add(planners)
	for i := 0; i < planners; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = NewPlanner().Plan(sys, d)
		}(i)
	}
	wg.Wait()
	for i := range results {
		samePlan(t, fmt.Sprintf("concurrent plan %d", i), want, results[i])
	}
}

// TestWorkersOptionDefaults pins the worker-resolution contract.
func TestWorkersOptionDefaults(t *testing.T) {
	if w := NewPlanner().workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := NewPlanner(WithWorkers(1)).workers(); w != 1 {
		t.Fatalf("WithWorkers(1) resolved to %d", w)
	}
	if w := NewPlanner(WithWorkers(6)).workers(); w != 6 {
		t.Fatalf("WithWorkers(6) resolved to %d", w)
	}
}
