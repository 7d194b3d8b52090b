package alloc

import (
	"testing"

	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/task"
)

// req builds a request: node 1 demands attrs 1 and 2 (participating in
// both sets), node 2 demands only attr 1, nodes 3-5 demand only attr 2.
func req(t *testing.T) Request {
	t.Helper()
	nodes := []model.Node{
		{ID: 1, Capacity: 100},
		{ID: 2, Capacity: 100},
		{ID: 3, Capacity: 100},
		{ID: 4, Capacity: 100},
		{ID: 5, Capacity: 100},
	}
	sys, err := model.NewSystem(60, cost.Default(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	d := task.NewDemand()
	d.Set(1, 1, 1)
	d.Set(1, 2, 3) // weight 3 toward set 2
	d.Set(2, 1, 1)
	for n := model.NodeID(3); n <= 5; n++ {
		d.Set(n, 2, 1)
	}
	return request(sys, d, []model.AttrSet{model.NewAttrSet(1), model.NewAttrSet(2)})
}

// request fills a Request's participant and capacity slices for sets.
func request(sys *model.System, d *task.Demand, sets []model.AttrSet) Request {
	r := Request{Sys: sys, Demand: d, Sets: sets}
	for _, set := range sets {
		parts := d.Participants(set)
		caps := make([]float64, len(parts))
		for i, n := range parts {
			caps[i] = sys.Capacity(n)
		}
		r.Parts, r.Caps = append(r.Parts, parts), append(r.Caps, caps)
	}
	return r
}

func TestUniformSplitsEvenly(t *testing.T) {
	r := req(t)
	seq := New(Uniform)
	avail := seq.Avail(r, 0, nil, nil) // participants 1, 2
	if avail[0] != 50 {                // node 1 participates in both trees
		t.Fatalf("node 1 avail = %v, want 50", avail[0])
	}
	if avail[1] != 100 { // node 2 participates only in tree 0
		t.Fatalf("node 2 avail = %v, want 100", avail[1])
	}
	if got := seq.CentralAvail(r, 0, 0); got != 30 {
		t.Fatalf("central avail = %v, want 30", got)
	}
}

func TestProportionalWeights(t *testing.T) {
	r := req(t)
	seq := New(Proportional)
	a0 := seq.Avail(r, 0, nil, nil)
	a1 := seq.Avail(r, 1, nil, nil)
	// Node 1 (first participant of both): weight 1 in set 0, 3 in set
	// 1 -> 25 / 75.
	if a0[0] != 25 || a1[0] != 75 {
		t.Fatalf("node 1 avail = %v / %v, want 25/75", a0[0], a1[0])
	}
	// Pair counts: set 0 has 2 pairs, set 1 has 4 -> central 20/40.
	if got := seq.CentralAvail(r, 0, 0); got != 20 {
		t.Fatalf("central set0 = %v, want 20", got)
	}
	if got := seq.CentralAvail(r, 1, 0); got != 40 {
		t.Fatalf("central set1 = %v, want 40", got)
	}
}

func TestOnDemandUsesRemaining(t *testing.T) {
	r := req(t)
	seq := New(OnDemand)
	used := []float64{30, 0, 0, 0} // participants 1, 3, 4, 5
	avail := seq.Avail(r, 1, used, nil)
	if avail[0] != 70 {
		t.Fatalf("node 1 avail = %v, want 70", avail[0])
	}
	if got := seq.CentralAvail(r, 1, 45); got != 15 {
		t.Fatalf("central = %v, want 15", got)
	}
	// Never negative.
	used[0] = 200
	if got := seq.Avail(r, 1, used, avail)[0]; got != 0 {
		t.Fatalf("over-used avail = %v, want 0", got)
	}
	if got := seq.CentralAvail(r, 1, 100); got != 0 {
		t.Fatalf("over-used central = %v, want 0", got)
	}
}

func TestOrderedBuildsSmallTreesFirst(t *testing.T) {
	r := req(t)
	// Set 0 has 2 participants, set 1 has 4.
	order := New(Ordered).Order(r)
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("Ordered order = %v, want [0 1]", order)
	}
	// Swap sets: order should follow sizes, not indices.
	r = request(r.Sys, r.Demand, []model.AttrSet{r.Sets[1], r.Sets[0]})
	order = New(Ordered).Order(r)
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("Ordered order after swap = %v, want [1 0]", order)
	}
	// OnDemand keeps the given order.
	order = New(OnDemand).Order(r)
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("OnDemand order = %v, want [0 1]", order)
	}
}

func TestSchemeNames(t *testing.T) {
	for _, s := range Schemes() {
		if got := New(s).Scheme(); got != s {
			t.Errorf("New(%s).Scheme() = %s", s, got)
		}
	}
	if New("bogus").Scheme() != Ordered {
		t.Error("unknown scheme does not fall back to Ordered")
	}
}

func TestUniformAllocationsNeverExceedCapacity(t *testing.T) {
	r := req(t)
	for _, scheme := range []Scheme{Uniform, Proportional} {
		seq := New(scheme)
		total := make(map[model.NodeID]float64)
		for k, set := range r.Sets {
			parts := r.Demand.Participants(set)
			for i, a := range seq.Avail(r, k, nil, nil) {
				total[parts[i]] += a
			}
		}
		for n, sum := range total {
			if sum > r.Sys.Capacity(n)+1e-9 {
				t.Errorf("%s: node %v allocated %v > capacity %v", scheme, n, sum, r.Sys.Capacity(n))
			}
		}
	}
}
