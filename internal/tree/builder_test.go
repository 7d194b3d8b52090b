package tree

import (
	"math/rand"
	"testing"

	"remo/internal/agg"
	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
)

// env builds a uniform test system: n nodes of the given capacity, every
// node demanding attribute 1 with weight 1, C=10 a=1.
func env(t *testing.T, n int, capacity, centralCap float64) (Context, *model.System, *task.Demand) {
	t.Helper()
	nodes := make([]model.Node, n)
	for i := range nodes {
		nodes[i] = model.Node{ID: model.NodeID(i + 1), Capacity: capacity, Attrs: []model.AttrID{1}}
	}
	sys, err := model.NewSystem(centralCap, cost.Model{PerMessage: 10, PerValue: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	d := task.NewDemand()
	avail := make(map[model.NodeID]float64, n)
	for _, id := range sys.NodeIDs() {
		d.Set(id, 1, 1)
		avail[id] = capacity
	}
	ctx := Context{
		Sys:          sys,
		Demand:       d,
		Attrs:        model.NewAttrSet(1),
		Nodes:        sys.NodeIDs(),
		Avail:        availFor(sys.NodeIDs(), avail),
		CentralAvail: centralCap,
	}
	return ctx, sys, d
}

// availFor lays a per-node budget map out index-aligned with nodes, as
// Context.Avail wants it.
func availFor(nodes []model.NodeID, m map[model.NodeID]float64) []float64 {
	out := make([]float64, len(nodes))
	for i, n := range nodes {
		out[i] = m[n]
	}
	return out
}

// checkResult verifies the structural and capacity invariants every
// builder must uphold.
func checkResult(t *testing.T, ctx Context, r Result) {
	t.Helper()
	if err := r.Tree.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	// Placed + excluded = participants, no overlap.
	seen := make(map[model.NodeID]bool)
	for _, n := range r.Tree.Members() {
		seen[n] = true
	}
	for _, n := range r.Excluded {
		if seen[n] {
			t.Fatalf("node %v both placed and excluded", n)
		}
		seen[n] = true
	}
	if len(seen) != len(ctx.Nodes) {
		t.Fatalf("placed+excluded = %d, participants = %d", len(seen), len(ctx.Nodes))
	}
	// Recomputed usage within per-tree budgets.
	st := plan.ComputeTreeStats(r.Tree, ctx.Demand, ctx.Sys, ctx.Spec)
	const eps = 1e-6
	at := make(map[model.NodeID]int, len(ctx.Nodes))
	for i, n := range ctx.Nodes {
		at[n] = i
	}
	for n, u := range st.Usage {
		i := at[n]
		if u > ctx.Avail[i]+eps {
			t.Fatalf("node %v usage %.3f exceeds avail %.3f", n, u, ctx.Avail[i])
		}
		if diff := u - r.Used[i]; diff > eps || diff < -eps {
			t.Fatalf("node %v bookkeeping drift: incremental %.3f, recomputed %.3f", n, r.Used[i], u)
		}
	}
	if st.RootSend > ctx.CentralAvail+eps {
		t.Fatalf("central usage %.3f exceeds avail %.3f", st.RootSend, ctx.CentralAvail)
	}
	if diff := st.RootSend - r.CentralUsed; diff > eps || diff < -eps {
		t.Fatalf("central bookkeeping drift: %.3f vs %.3f", r.CentralUsed, st.RootSend)
	}
}

func TestStarShape(t *testing.T) {
	ctx, _, _ := env(t, 5, 1e6, 1e6)
	r := New(Star).Build(ctx)
	checkResult(t, ctx, r)
	if r.Tree.Size() != 5 {
		t.Fatalf("placed %d, want 5", r.Tree.Size())
	}
	// With unlimited capacity STAR is a pure star: height 2 at most
	// (root + direct children).
	if h := r.Tree.Height(); h > 2 {
		t.Fatalf("STAR height = %d, want <= 2", h)
	}
	if got := len(r.Tree.Children(r.Tree.Root())); got != 4 {
		t.Fatalf("root children = %d, want 4", got)
	}
}

func TestChainShape(t *testing.T) {
	ctx, _, _ := env(t, 5, 1e6, 1e6)
	r := New(Chain).Build(ctx)
	checkResult(t, ctx, r)
	if r.Tree.Size() != 5 {
		t.Fatalf("placed %d, want 5", r.Tree.Size())
	}
	if h := r.Tree.Height(); h != 5 {
		t.Fatalf("CHAIN height = %d, want 5", h)
	}
}

// TestSchemesUnderPressure reproduces the hand-computed scenario: 6 nodes,
// capacity 35, C=10 a=1. STAR saturates after 3 nodes (root relay cost),
// CHAIN fits all 6, and ADAPTIVE recovers chain-like capacity from its
// STAR start.
func TestSchemesUnderPressure(t *testing.T) {
	const capacity = 35
	build := func(s Scheme) Result {
		ctx, _, _ := env(t, 6, capacity, 1e6)
		r := New(s).Build(ctx)
		checkResult(t, ctx, r)
		return r
	}
	star := build(Star)
	if star.Tree.Size() != 3 {
		t.Errorf("STAR placed %d, want 3", star.Tree.Size())
	}
	chain := build(Chain)
	if chain.Tree.Size() != 6 {
		t.Errorf("CHAIN placed %d, want 6", chain.Tree.Size())
	}
	adaptive := build(Adaptive)
	if adaptive.Tree.Size() < 5 {
		t.Errorf("ADAPTIVE placed %d, want >= 5", adaptive.Tree.Size())
	}
	if adaptive.Tree.Size() < star.Tree.Size() {
		t.Errorf("ADAPTIVE (%d) worse than STAR (%d)", adaptive.Tree.Size(), star.Tree.Size())
	}
}

// TestChainRelayCostExceedsStar verifies the relay-cost tradeoff of
// §2.4: for the same membership, CHAIN's total capacity consumption is
// strictly higher than STAR's (every hop re-relays the payload), which is
// what starves co-hosted trees in multi-task plans.
func TestChainRelayCostExceedsStar(t *testing.T) {
	ctx, sys, d := env(t, 6, 1e6, 1e6)
	star := New(Star).Build(ctx)
	checkResult(t, ctx, star)
	ctx2, _, _ := env(t, 6, 1e6, 1e6)
	chain := New(Chain).Build(ctx2)
	checkResult(t, ctx2, chain)
	if star.Tree.Size() != 6 || chain.Tree.Size() != 6 {
		t.Fatalf("sizes: star=%d chain=%d, want 6/6", star.Tree.Size(), chain.Tree.Size())
	}
	starTotal := plan.ComputeTreeStats(star.Tree, d, sys, nil).TotalUsage()
	chainTotal := plan.ComputeTreeStats(chain.Tree, d, sys, nil).TotalUsage()
	if chainTotal <= starTotal {
		t.Fatalf("chain total usage %.1f should exceed star %.1f", chainTotal, starTotal)
	}
}

func TestCentralCapacityLimitsRoot(t *testing.T) {
	// Central can only afford the root message of a tree with <= 2
	// values (C + 2a = 12).
	ctx, _, _ := env(t, 4, 1e6, 12)
	r := New(Adaptive).Build(ctx)
	checkResult(t, ctx, r)
	if r.Tree.Size() > 2 {
		t.Fatalf("placed %d, central capacity should cap at 2", r.Tree.Size())
	}
}

func TestNodeTooSmallForOwnMessage(t *testing.T) {
	// Capacity below C+a: the node cannot even send its own update.
	ctx, _, _ := env(t, 3, 10.5, 1e6)
	r := New(Adaptive).Build(ctx)
	checkResult(t, ctx, r)
	if r.Tree.Size() != 0 || len(r.Excluded) != 3 {
		t.Fatalf("size=%d excluded=%d, want 0/3", r.Tree.Size(), len(r.Excluded))
	}
}

func TestSumAggregationEnablesDeepTrees(t *testing.T) {
	// With SUM aggregation every message carries one value, so even tiny
	// capacities host long chains.
	spec := agg.NewSpec()
	spec.SetKind(1, agg.Sum)
	ctx, _, _ := env(t, 10, 23, 1e6) // fits u=11 send + 11 receive + slack
	ctx.Spec = spec
	r := New(Adaptive).Build(ctx)
	checkResult(t, ctx, r)
	holCtx, _, _ := env(t, 10, 23, 1e6)
	hol := New(Adaptive).Build(holCtx)
	checkResult(t, holCtx, hol)
	if r.Tree.Size() <= hol.Tree.Size() {
		t.Fatalf("SUM (%d placed) should beat holistic (%d placed) at capacity 23",
			r.Tree.Size(), hol.Tree.Size())
	}
}

func TestAdaptiveVariantsAllValid(t *testing.T) {
	variants := []Opts{
		{},
		{BranchReattach: true},
		{SubtreeOnly: true},
		{BranchReattach: true, SubtreeOnly: true},
	}
	for _, opts := range variants {
		ctx, _, _ := env(t, 12, 40, 1e6)
		r := NewAdaptive(opts).Build(ctx)
		checkResult(t, ctx, r)
		if r.Tree.Size() < 3 {
			t.Errorf("opts %+v placed only %d nodes", opts, r.Tree.Size())
		}
	}
}

func TestBuildersAreDeterministic(t *testing.T) {
	for _, s := range Schemes() {
		ctx1, _, _ := env(t, 15, 45, 1e6)
		ctx2, _, _ := env(t, 15, 45, 1e6)
		r1 := New(s).Build(ctx1)
		r2 := New(s).Build(ctx2)
		e1 := r1.Tree.Edges()
		e2 := r2.Tree.Edges()
		if len(e1) != len(e2) {
			t.Fatalf("%s nondeterministic sizes: %d vs %d", s, len(e1), len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("%s nondeterministic edge %d: %v vs %v", s, i, e1[i], e2[i])
			}
		}
	}
}

// TestRandomizedInvariants fuzzes all builders over random systems and
// demands, checking the structural and capacity invariants hold.
func TestRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(20)
		nodes := make([]model.Node, n)
		d := task.NewDemand()
		avail := make(map[model.NodeID]float64, n)
		attrs := []model.AttrID{1, 2, 3}
		for i := range nodes {
			id := model.NodeID(i + 1)
			capacity := 15 + rng.Float64()*80
			nodes[i] = model.Node{ID: id, Capacity: capacity, Attrs: attrs}
			avail[id] = capacity
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					d.Set(id, a, 1)
				}
			}
		}
		sys, err := model.NewSystem(200+rng.Float64()*800, cost.Model{PerMessage: 5 + rng.Float64()*15, PerValue: 1}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		set := model.NewAttrSet(attrs...)
		ctx := Context{
			Sys:          sys,
			Demand:       d,
			Attrs:        set,
			Nodes:        d.Participants(set),
			Avail:        availFor(d.Participants(set), avail),
			CentralAvail: sys.CentralCapacity,
		}
		for _, s := range Schemes() {
			r := New(s).Build(ctx)
			checkResult(t, ctx, r)
		}
	}
}

// TestResultFingerprint pins the build-result digest the planner's
// tree memo and the determinism tests rely on: identical builds agree,
// and any change to structure or charges disagrees.
func TestResultFingerprint(t *testing.T) {
	for _, s := range Schemes() {
		ctx1, _, _ := env(t, 12, 45, 1e6)
		ctx2, _, _ := env(t, 12, 45, 1e6)
		r1 := New(s).Build(ctx1)
		r2 := New(s).Build(ctx2)
		if r1.Fingerprint() != r2.Fingerprint() {
			t.Fatalf("%s: identical builds fingerprint differently", s)
		}
		// A tighter capacity produces a different build outcome (fewer
		// placed nodes or different charges) and must not collide.
		ctx3, _, _ := env(t, 12, 25, 1e6)
		r3 := New(s).Build(ctx3)
		if r3.Fingerprint() == r1.Fingerprint() {
			t.Fatalf("%s: different builds share a fingerprint", s)
		}
	}
}
