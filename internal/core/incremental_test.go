package core

import (
	"testing"

	"remo/internal/model"
	"remo/internal/task"
	"remo/internal/tree"
	"remo/internal/workload"
)

// richPlanEnv builds a capacity-generous environment where full
// coverage is reachable, so incremental updates match full replans
// exactly and the assertions below are equalities.
func richPlanEnv(t *testing.T, seed int64) (*model.System, []model.Task) {
	t.Helper()
	sys, err := workload.System(workload.SystemConfig{
		Nodes: 16, Attrs: 8,
		CapacityLo: 800, CapacityHi: 1200,
		CentralCapacity: 4000,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := workload.Tasks(sys, workload.TaskConfig{
		Count: 8, AttrsPerTask: 2, NodesPerTask: 6, Seed: seed + 1,
	})
	return sys, tasks
}

func TestTreeMemoCapEvicts(t *testing.T) {
	d := task.NewDemand()
	d.Set(1, 1, 1)
	c := newEvalCache(d, 2)
	for i := 1; i <= 4; i++ {
		key := treeKey{attrs: string(rune('a' + i)), hash: uint64(i)}
		c.storeTree(key, model.NewAttrSet(model.AttrID(i)), tree.Result{})
	}
	if got := c.memoLen(); got > 2 {
		t.Fatalf("memo holds %d entries past cap 2", got)
	}
	if c.evicted() == 0 {
		t.Fatal("no capacity evictions recorded")
	}
}

// TestTreeMemoSecondChance pins the clock sweep: a recently hit entry
// survives one eviction round, an untouched one does not.
func TestTreeMemoSecondChance(t *testing.T) {
	d := task.NewDemand()
	d.Set(1, 1, 1)
	c := newEvalCache(d, 2)
	hot := treeKey{attrs: "hot", hash: 1}
	cold := treeKey{attrs: "cold", hash: 2}
	c.storeTree(hot, model.NewAttrSet(1), tree.Result{})
	c.storeTree(cold, model.NewAttrSet(2), tree.Result{})
	if _, ok := c.lookupTree(hot); !ok { // sets hot's reference bit
		t.Fatal("hot entry missing before eviction")
	}
	c.storeTree(treeKey{attrs: "new", hash: 3}, model.NewAttrSet(3), tree.Result{})
	if _, ok := c.lookupTree(hot); !ok {
		t.Fatal("referenced entry was evicted before the unreferenced one")
	}
	if _, ok := c.lookupTree(cold); ok {
		t.Fatal("unreferenced entry survived over the referenced one")
	}
}

func TestCacheInvalidateByNeighborhood(t *testing.T) {
	d := task.NewDemand()
	d.Set(1, 1, 1)
	d.Set(2, 2, 1)
	c := newEvalCache(d, 0)
	c.storeTree(treeKey{attrs: "1", hash: 1}, model.NewAttrSet(1), tree.Result{})
	c.storeTree(treeKey{attrs: "2", hash: 2}, model.NewAttrSet(2), tree.Result{})
	_ = c.entry(&model.System{}, model.NewAttrSet(1))
	_ = c.entry(&model.System{}, model.NewAttrSet(2))

	c.invalidate(model.NewAttrSet(1))
	if _, ok := c.lookupTree(treeKey{attrs: "1", hash: 1}); ok {
		t.Fatal("intersecting tree survived invalidation")
	}
	if _, ok := c.lookupTree(treeKey{attrs: "2", hash: 2}); !ok {
		t.Fatal("disjoint tree was invalidated")
	}
	c.mu.RLock()
	_, gone := c.sets[model.NewAttrSet(1).Key()]
	_, kept := c.sets[model.NewAttrSet(2).Key()]
	c.mu.RUnlock()
	if gone || !kept {
		t.Fatalf("participants after invalidate: dirty present=%v clean present=%v", gone, kept)
	}
}

// TestUnboundedMemoNeverEvicts pins WithTreeMemoCap(-1).
func TestUnboundedMemoNeverEvicts(t *testing.T) {
	d := task.NewDemand()
	d.Set(1, 1, 1)
	c := newEvalCache(d, -1)
	for i := 1; i <= 2*defaultTreeMemoCap/64; i++ {
		c.storeTree(treeKey{hash: uint64(i)}, model.NewAttrSet(1), tree.Result{})
	}
	if c.evicted() != 0 {
		t.Fatal("unbounded cache evicted")
	}
}

func TestReplannerNoChangeIsFree(t *testing.T) {
	sys, tasks := richPlanEnv(t, 21)
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplanner(NewPlanner(), sys, d)
	before := r.Current()
	res, st := r.Update(d.Clone())
	if !st.Incremental || st.FellBack || st.Evaluations != 0 {
		t.Fatalf("no-op update stats = %+v", st)
	}
	if res.Forest.Fingerprint() != before.Forest.Fingerprint() {
		t.Fatal("no-op update changed the forest")
	}
	if len(st.Diff.Rebuilt)+len(st.Diff.Dropped) != 0 {
		t.Fatalf("no-op diff = %+v", st.Diff)
	}
}

func TestReplannerDirtyLimitEscalates(t *testing.T) {
	sys, tasks := richPlanEnv(t, 22)
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplanner(NewPlanner(), sys, d, WithReplanDirtyLimit(-1))
	extra := workload.Tasks(sys, workload.TaskConfig{
		Count: 1, AttrsPerTask: 1, NodesPerTask: 2, Seed: 99, Prefix: "extra",
	})
	nd, err := workload.Demand(sys, append(tasks, extra...))
	if err != nil {
		t.Fatal(err)
	}
	res, st := r.Update(nd)
	if st.Incremental || st.FellBack {
		t.Fatalf("negative dirty limit did not escalate upfront: %+v", st)
	}
	want := NewPlanner().Plan(sys, nd)
	if res.Stats.Collected != want.Stats.Collected {
		t.Fatalf("escalated replan collected %d, full plan %d", res.Stats.Collected, want.Stats.Collected)
	}
}

func TestReplannerIncrementalMatchesFull(t *testing.T) {
	sys, tasks := richPlanEnv(t, 23)
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplanner(NewPlanner(), sys, d)
	// Remove one task, then add one: both directions must stay at parity
	// with a from-scratch replan on this capacity-rich instance.
	steps := [][]model.Task{
		tasks[1:],
		append(append([]model.Task(nil), tasks[1:]...), workload.Tasks(sys, workload.TaskConfig{
			Count: 1, AttrsPerTask: 2, NodesPerTask: 4, Seed: 77, Prefix: "new",
		})...),
	}
	for i, cur := range steps {
		nd, err := workload.Demand(sys, cur)
		if err != nil {
			t.Fatal(err)
		}
		res, st := r.Update(nd)
		want := NewPlanner().Plan(sys, nd)
		if res.Stats.Collected != want.Stats.Collected {
			t.Fatalf("step %d: incremental %d pairs vs full %d (stats %+v)",
				i, res.Stats.Collected, want.Stats.Collected, st)
		}
		if st.TotalSets == 0 || st.DirtySets > st.TotalSets {
			t.Fatalf("step %d: implausible neighborhood %d/%d", i, st.DirtySets, st.TotalSets)
		}
		if r.LastStats().Diff.ReusePct() != st.Diff.ReusePct() {
			t.Fatalf("step %d: LastStats out of sync", i)
		}
	}
}

// TestReplannerFromExternalForest seeds a replanner the way the
// adaptor does after a repair: from an externally built forest, with a
// fresh memo.
func TestReplannerFromExternalForest(t *testing.T) {
	sys, tasks := richPlanEnv(t, 24)
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner()
	ext := p.Plan(sys, d)
	r := NewReplannerFrom(p, sys, d, Result{
		Forest:    ext.Forest,
		Stats:     ext.Forest.ComputeStats(d, sys, nil),
		Partition: ext.Forest.Partition(),
	})
	if r.Current().Forest.Fingerprint() != ext.Forest.Fingerprint() {
		t.Fatal("NewReplannerFrom did not adopt the external forest")
	}
	// Updates keep working from the adopted state.
	nd, err := workload.Demand(sys, tasks[1:])
	if err != nil {
		t.Fatal(err)
	}
	res, _ := r.Update(nd)
	want := NewPlanner().Plan(sys, nd)
	if res.Stats.Collected != want.Stats.Collected {
		t.Fatalf("post-seed update collected %d, full plan %d", res.Stats.Collected, want.Stats.Collected)
	}
}

// TestReplannerFromSeedIsDeterministic pins the cold-resume contract:
// seeding from a journaled partition re-derives the same forest
// fingerprint as the session that wrote it.
func TestReplannerFromSeedIsDeterministic(t *testing.T) {
	sys, tasks := richPlanEnv(t, 25)
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner()
	orig := p.Plan(sys, d)
	re := p.PlanPartition(sys, d, orig.Partition)
	if re.Forest.Fingerprint() != orig.Forest.Fingerprint() {
		t.Fatal("re-evaluating the journaled partition changed the forest")
	}
	r := NewReplannerFrom(p, sys, d, re)
	if r.Current().Forest.Fingerprint() != orig.Forest.Fingerprint() {
		t.Fatal("NewReplannerFrom did not adopt the seed plan")
	}
}

// TestReplannerForcedFallback pins the post-search fallback path: a
// negative tolerance turns any scoped result into a regression, so the
// update discards it and adopts the full search's plan.
func TestReplannerForcedFallback(t *testing.T) {
	sys, tasks := richPlanEnv(t, 26)
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		t.Fatal(err)
	}
	// The dirty limit is lifted so the scoped search always runs — this
	// instance's partition can collapse to one set, which the default
	// limit would escalate before ever reaching the fallback check.
	r := NewReplanner(NewPlanner(), sys, d, WithReplanFallback(-1), WithReplanDirtyLimit(1))
	nd, err := workload.Demand(sys, tasks[1:])
	if err != nil {
		t.Fatal(err)
	}
	res, st := r.Update(nd)
	if st.Incremental || !st.FellBack {
		t.Fatalf("negative tolerance did not force a fallback: %+v", st)
	}
	want := NewPlanner().Plan(sys, nd)
	if res.Stats.Collected != want.Stats.Collected {
		t.Fatalf("fallback replan collected %d, full plan %d", res.Stats.Collected, want.Stats.Collected)
	}
}

// TestReplannerDemandDrained pins the update to an empty demand: every
// set drops out of the reshaped partition and the diff retires the
// whole forest.
func TestReplannerDemandDrained(t *testing.T) {
	sys, tasks := richPlanEnv(t, 27)
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplanner(NewPlanner(), sys, d)
	trees := len(r.Current().Forest.Trees)
	res, st := r.Update(task.NewDemand())
	if !st.Incremental || st.TotalSets != 0 {
		t.Fatalf("drained update stats = %+v", st)
	}
	if res.Stats.Collected != 0 || len(res.Forest.Trees) != 0 {
		t.Fatalf("drained plan still collects: %+v", res.Stats)
	}
	if len(st.Diff.Dropped) != trees {
		t.Fatalf("diff dropped %d of %d trees", len(st.Diff.Dropped), trees)
	}
}

// TestReplannerCongestedRecruitment drives a removal through a
// capacity-starved instance, where clean-but-congested sets compete for
// the freed nodes and the gain-ranked budget admits at most a handful.
func TestReplannerCongestedRecruitment(t *testing.T) {
	sys, err := workload.System(workload.SystemConfig{
		Nodes: 24, Attrs: 12,
		CapacityLo: 60, CapacityHi: 120,
		CentralCapacity: 300,
		Seed:            41,
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := workload.Tasks(sys, workload.TaskConfig{
		Count: 16, AttrsPerTask: 2, NodesPerTask: 8, Seed: 42,
	})
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplanner(NewPlanner(), sys, d)
	nd, err := workload.Demand(sys, tasks[1:])
	if err != nil {
		t.Fatal(err)
	}
	res, st := r.Update(nd)
	if st.TotalSets == 0 || st.DirtySets == 0 {
		t.Fatalf("removal update marked nothing dirty: %+v", st)
	}
	if res.Stats.Collected > nd.PairCount() {
		t.Fatalf("collected %d of %d demanded pairs", res.Stats.Collected, nd.PairCount())
	}
	// Whatever path the guards picked, the maintained state must track
	// the adopted plan.
	if r.Current().Forest.Fingerprint() != res.Forest.Fingerprint() {
		t.Fatal("Current out of sync with the adopted plan")
	}
}
