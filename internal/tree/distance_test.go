package tree

import (
	"math/rand"
	"testing"

	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
	"remo/internal/workload"
)

// distEnv builds the standard single-attribute environment with a
// distance function installed.
func distEnv(t *testing.T, n int, capacity float64, dist func(a, b model.NodeID) float64) Context {
	t.Helper()
	nodes := make([]model.Node, n)
	for i := range nodes {
		nodes[i] = model.Node{ID: model.NodeID(i + 1), Capacity: capacity, Attrs: []model.AttrID{1}}
	}
	sys, err := model.NewSystem(1e6, cost.Model{PerMessage: 10, PerValue: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	sys.Distance = dist
	d := task.NewDemand()
	avail := make(map[model.NodeID]float64, n)
	for _, id := range sys.NodeIDs() {
		d.Set(id, 1, 1)
		avail[id] = capacity
	}
	return Context{
		Sys:          sys,
		Demand:       d,
		Attrs:        model.NewAttrSet(1),
		Nodes:        sys.NodeIDs(),
		Avail:        availFor(sys.NodeIDs(), avail),
		CentralAvail: 1e6,
	}
}

func TestDistanceScaledChainCosts(t *testing.T) {
	// Uniform distance factor 2: every send cost doubles, receive costs
	// are unchanged. A chain 1<-2 (C=10, a=1): n2's send = 2·11 = 22,
	// n1 receives 11 and sends 2·12 = 24, so usage(n1) = 35.
	ctx := distEnv(t, 2, 100, func(a, b model.NodeID) float64 { return 2 })
	r := New(Chain).Build(ctx)
	checkResult(t, ctx, r)
	if r.Tree.Size() != 2 {
		t.Fatalf("placed %d, want 2", r.Tree.Size())
	}
	st := plan.ComputeTreeStats(r.Tree, ctx.Demand, ctx.Sys, nil)
	if st.Usage[2] != 22 {
		t.Fatalf("usage(n2) = %v, want 22", st.Usage[2])
	}
	if st.Usage[1] != 35 {
		t.Fatalf("usage(n1) = %v, want 35", st.Usage[1])
	}
	// The collector still pays the endpoint cost.
	if st.RootSend != 12 {
		t.Fatalf("RootSend = %v, want 12", st.RootSend)
	}
}

func TestDistanceLimitsFarAttachments(t *testing.T) {
	// Two racks of 3; cross-rack factor 10. A node with capacity 115
	// can afford an intra-rack chain hop (send 11) but a cross-rack send
	// costs 110 <= 115 while relaying anything on top bursts it.
	dist := workload.RackDistance(3, 1, 10)
	ctx := distEnv(t, 6, 115, dist)
	r := New(Adaptive).Build(ctx)
	checkResult(t, ctx, r)
	// Whatever shape results, cross-rack members must not relay big
	// payloads: validation via checkResult is the core guarantee; also
	// ensure at least the first rack is fully placed.
	placed := 0
	for _, n := range []model.NodeID{1, 2, 3} {
		if r.Tree.Contains(n) {
			placed++
		}
	}
	if placed < 3 {
		t.Fatalf("first rack placed %d of 3", placed)
	}
}

func TestDistanceFuzzAllBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(14)
		factor := 1 + rng.Float64()*4
		rackSize := 1 + rng.Intn(4)
		dist := workload.RackDistance(rackSize, 1, factor)
		capacity := 40 + rng.Float64()*120
		ctx := distEnv(t, n, capacity, dist)
		for _, s := range Schemes() {
			r := New(s).Build(ctx)
			checkResult(t, ctx, r)
		}
	}
}

func TestNilAndBadDistanceDefaults(t *testing.T) {
	ctx := distEnv(t, 3, 100, nil)
	if got := ctx.Sys.Dist(1, 2); got != 1 {
		t.Fatalf("nil distance Dist = %v", got)
	}
	ctx2 := distEnv(t, 3, 100, func(a, b model.NodeID) float64 { return -5 })
	if got := ctx2.Sys.Dist(1, 2); got != 1 {
		t.Fatalf("negative distance Dist = %v, want clamp to 1", got)
	}
}
