package adapt

import (
	"math/rand"
	"testing"

	"remo/internal/core"
	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/partition"
	"remo/internal/task"
)

// churnEnv builds a system plus an initial demand and a mutated demand
// (5% of nodes replace half their attributes, as in §7's adaptation
// experiments).
func churnEnv(t *testing.T, rng *rand.Rand, n, nAttrs int) (*model.System, *task.Demand, *task.Demand) {
	t.Helper()
	attrs := make([]model.AttrID, nAttrs)
	for i := range attrs {
		attrs[i] = model.AttrID(i + 1)
	}
	nodes := make([]model.Node, n)
	d := task.NewDemand()
	for i := range nodes {
		id := model.NodeID(i + 1)
		nodes[i] = model.Node{ID: id, Capacity: 40 + rng.Float64()*60, Attrs: attrs}
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				d.Set(id, a, 1)
			}
		}
		if len(d.LocalAttrs(id, model.NewAttrSet(attrs...))) == 0 {
			d.Set(id, attrs[0], 1)
		}
	}
	sys, err := model.NewSystem(600, cost.Model{PerMessage: 10, PerValue: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}

	mutated := d.Clone()
	for i := 0; i < n/20+1; i++ {
		id := model.NodeID(rng.Intn(n) + 1)
		local := mutated.AttrsOf(id).Attrs()
		for j, a := range local {
			if j%2 == 0 {
				mutated.Remove(id, a)
				mutated.Set(id, attrs[(int(a)+j)%nAttrs], 1)
			}
		}
	}
	return sys, d, mutated
}

func newAdaptor(scheme Scheme, sys *model.System) *Adaptor {
	return New(scheme, core.NewPlanner(), sys)
}

func TestInitPlansValidTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sys, d, _ := churnEnv(t, rng, 20, 4)
	for _, scheme := range Schemes() {
		a := newAdaptor(scheme, sys)
		rep := a.Init(d)
		if rep.Stats.Collected == 0 {
			t.Errorf("%s: Init collected nothing", scheme)
		}
		if err := a.Forest().Validate(d, sys, nil); err != nil {
			t.Errorf("%s: invalid init topology: %v", scheme, err)
		}
	}
}

func TestApplyKeepsTopologyValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sys, d, mutated := churnEnv(t, rng, 25, 4)
	for _, scheme := range Schemes() {
		a := newAdaptor(scheme, sys)
		a.Init(d)
		rep := a.Apply(mutated)
		if err := a.Forest().Validate(mutated, sys, nil); err != nil {
			t.Errorf("%s: invalid adapted topology: %v", scheme, err)
		}
		if err := partition.Validate(a.Partition(), mutated.Universe()); err != nil {
			t.Errorf("%s: invalid partition: %v", scheme, err)
		}
		if rep.Stats.Collected == 0 {
			t.Errorf("%s: adapted topology collects nothing", scheme)
		}
	}
}

func TestDirectApplyMinimalChange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys, d, mutated := churnEnv(t, rng, 30, 4)

	da := newAdaptor(DirectApply, sys)
	da.Init(d)
	daRep := da.Apply(mutated)

	rb := newAdaptor(Rebuild, sys)
	rb.Init(d)
	rbRep := rb.Apply(mutated)

	if daRep.AdaptMessages > rbRep.AdaptMessages {
		t.Errorf("D-A adaptation cost %d exceeds REBUILD %d",
			daRep.AdaptMessages, rbRep.AdaptMessages)
	}
	if daRep.PlanTime > rbRep.PlanTime*4 {
		t.Errorf("D-A planning (%v) much slower than REBUILD (%v)",
			daRep.PlanTime, rbRep.PlanTime)
	}
}

func TestNoChangeIsCheap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sys, d, _ := churnEnv(t, rng, 20, 3)
	for _, scheme := range []Scheme{DirectApply, NoThrottle, Adaptive} {
		a := newAdaptor(scheme, sys)
		a.Init(d)
		rep := a.Apply(d.Clone())
		if rep.AdaptMessages != 0 {
			t.Errorf("%s: no-op change produced %d adapt messages", scheme, rep.AdaptMessages)
		}
	}
}

func TestAttributeAdditionAndRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys, d, _ := churnEnv(t, rng, 20, 3)

	// Add a brand-new attribute on half the nodes; remove attr 1
	// everywhere.
	mutated := d.Clone()
	const newAttr = model.AttrID(9)
	for i, id := range mutated.Nodes() {
		if i%2 == 0 {
			mutated.Set(id, newAttr, 1)
		}
		mutated.Remove(id, 1)
	}

	for _, scheme := range Schemes() {
		a := newAdaptor(scheme, sys)
		a.Init(d)
		a.Apply(mutated)
		if err := a.Forest().Validate(mutated, sys, nil); err != nil {
			t.Errorf("%s: %v", scheme, err)
		}
		if tr := a.Forest().TreeFor(1); tr != nil {
			t.Errorf("%s: removed attribute still has a tree", scheme)
		}
		collected := a.Forest().CollectedPairs(mutated)
		foundNew := false
		for _, p := range collected {
			if p.Attr == newAttr {
				foundNew = true
				break
			}
		}
		if !foundNew {
			t.Errorf("%s: new attribute not collected", scheme)
		}
	}
}

// throttleEnv builds the deterministic throttle scenario: 6 nodes with
// ample capacity all reporting attrs 1 and 2 (which Init merges into one
// tree), and a mutation adding attr 3 everywhere (which D-A plants as a
// separate singleton tree). Merging {1,2} with {3} saves 6 messages per
// round but rewires every edge, so the throttle must weigh the trees'
// stability.
func throttleEnv(t *testing.T) (*model.System, *task.Demand, *task.Demand) {
	t.Helper()
	nodes := make([]model.Node, 6)
	d := task.NewDemand()
	for i := range nodes {
		id := model.NodeID(i + 1)
		nodes[i] = model.Node{ID: id, Capacity: 1e6, Attrs: []model.AttrID{1, 2, 3}}
		d.Set(id, 1, 1)
		d.Set(id, 2, 1)
	}
	sys, err := model.NewSystem(1e6, cost.Model{PerMessage: 10, PerValue: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	mutated := d.Clone()
	for _, id := range d.Nodes() {
		mutated.Set(id, 3, 1)
	}
	return sys, d, mutated
}

func TestThrottleRejectsFreshTrees(t *testing.T) {
	sys, d, mutated := throttleEnv(t)

	nt := newAdaptor(NoThrottle, sys)
	nt.Init(d)
	ntRep := nt.Apply(mutated)
	if ntRep.Operations == 0 {
		t.Fatal("NO-THROTTLE applied no operations; scenario broken")
	}
	if got := len(nt.Partition()); got != 1 {
		t.Fatalf("NO-THROTTLE partition = %v, want single merged set", nt.Partition())
	}

	// Immediately after Init the merged tree has stability 1 epoch:
	// threshold = 1 × (saving ≈ 6C) ≈ 60 < M_adapt (≈ 18 edges × C),
	// so ADAPTIVE must refuse the merge.
	ad := newAdaptor(Adaptive, sys)
	ad.Init(d)
	adRep := ad.Apply(mutated)
	if adRep.Operations != 0 {
		t.Fatalf("ADAPTIVE applied %d operations on fresh trees, want 0", adRep.Operations)
	}
	if got := len(ad.Partition()); got != 2 {
		t.Fatalf("ADAPTIVE partition = %v, want D-A's two sets", ad.Partition())
	}
}

func TestThrottleAllowsStableTrees(t *testing.T) {
	sys, d, mutated := throttleEnv(t)
	ad := newAdaptor(Adaptive, sys)
	ad.Init(d)
	// Many uneventful rounds: the {1,2} tree accumulates stability, so
	// the same merge's threshold grows past its reconfiguration cost.
	for i := 0; i < 25; i++ {
		ad.Apply(d.Clone())
	}
	rep := ad.Apply(mutated)
	if rep.Operations == 0 {
		t.Fatal("ADAPTIVE refused a merge on long-stable trees")
	}
	if got := len(ad.Partition()); got != 1 {
		t.Fatalf("partition = %v, want single merged set", ad.Partition())
	}
}

func TestSearchSchemesBeatDirectApplyOverTime(t *testing.T) {
	// Repeatedly grow the demand; D-A never re-partitions, so the
	// searching schemes should end up collecting at least as many pairs.
	rng := rand.New(rand.NewSource(7))
	sys, d, _ := churnEnv(t, rng, 25, 4)

	da := newAdaptor(DirectApply, sys)
	nt := newAdaptor(NoThrottle, sys)
	da.Init(d)
	nt.Init(d)

	cur := d
	for round := 0; round < 6; round++ {
		mutated := cur.Clone()
		// Shift demand: move a batch of pairs to new attributes.
		for i, id := range mutated.Nodes() {
			if (i+round)%5 == 0 {
				attr := model.AttrID(5 + (round % 3))
				mutated.Set(id, attr, 1)
			}
		}
		da.Apply(mutated)
		nt.Apply(mutated)
		cur = mutated
	}
	daStats := da.Forest().ComputeStats(cur, sys, nil)
	ntStats := nt.Forest().ComputeStats(cur, sys, nil)
	if ntStats.Collected < daStats.Collected {
		t.Errorf("NO-THROTTLE collected %d < D-A %d", ntStats.Collected, daStats.Collected)
	}
}

func TestReportFields(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sys, d, mutated := churnEnv(t, rng, 15, 3)
	a := newAdaptor(Adaptive, sys)
	initRep := a.Init(d)
	if initRep.AdaptMessages == 0 {
		t.Error("Init produced no adaptation messages")
	}
	rep := a.Apply(mutated)
	if rep.PlanTime <= 0 {
		t.Error("PlanTime not recorded")
	}
	if a.Scheme() != Adaptive {
		t.Error("Scheme() wrong")
	}
	if a.Demand().PairCount() != mutated.PairCount() {
		t.Error("Demand not installed")
	}
}

// TestProposeLeavesPlanInForce: for every scheme, over a churn
// sequence, Propose changes nothing a reader of the adaptor sees — the
// forest, the demand, the partition — and Commit then installs exactly
// the demand the proposal was planned for.
func TestProposeLeavesPlanInForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sys, d, mutated := churnEnv(t, rng, 25, 4)
	seq := []*task.Demand{mutated, d, mutated.Clone(), d.Clone()}
	for _, scheme := range append(Schemes(), Incremental) {
		a := newAdaptor(scheme, sys)
		a.Init(d)
		for i, nd := range seq {
			before, sets, demand := a.Forest().Fingerprint(), a.Partition(), a.Demand()
			p := a.Propose(nd, nil)
			if a.Forest().Fingerprint() != before || a.Demand() != demand || !sameSets(a.Partition(), sets) {
				t.Fatalf("%s step %d: Propose changed the plan in force", scheme, i)
			}
			a.Commit(p)
			if got, want := a.Demand().Pairs(), nd.Pairs(); len(got) != len(want) {
				t.Fatalf("%s step %d: committed %d pairs, proposed for %d", scheme, i, len(got), len(want))
			}
			if err := a.Forest().Validate(nd, sys, nil); err != nil {
				t.Fatalf("%s step %d: committed topology invalid: %v", scheme, i, err)
			}
		}
	}
}

func sameSets(a, b []model.AttrSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
