package cluster

import (
	"errors"
	"reflect"
	"testing"

	"remo/internal/agg"
	"remo/internal/chaos"
	"remo/internal/core"
	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
	"remo/internal/transport"
)

// deployEnv plans a topology for n nodes all reporting nAttrs attributes
// and returns everything needed to emulate it.
func deployEnv(t *testing.T, n, nAttrs int, capacity float64) (*model.System, *task.Demand, *plan.Forest) {
	t.Helper()
	attrs := make([]model.AttrID, nAttrs)
	for i := range attrs {
		attrs[i] = model.AttrID(i + 1)
	}
	nodes := make([]model.Node, n)
	d := task.NewDemand()
	for i := range nodes {
		id := model.NodeID(i + 1)
		nodes[i] = model.Node{ID: id, Capacity: capacity, Attrs: attrs}
		for _, a := range attrs {
			d.Set(id, a, 1)
		}
	}
	sys, err := model.NewSystem(1e6, cost.Model{PerMessage: 10, PerValue: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	res := core.NewPlanner().Plan(sys, d)
	if err := res.Forest.Validate(d, sys, nil); err != nil {
		t.Fatal(err)
	}
	return sys, d, res.Forest
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); !errors.Is(err, ErrNoRounds) {
		t.Fatalf("error = %v, want ErrNoRounds", err)
	}
	if _, err := Run(Config{Rounds: 5}); !errors.Is(err, ErrNoForest) {
		t.Fatalf("error = %v, want ErrNoForest", err)
	}
}

func TestFullCoverageWithValidPlan(t *testing.T) {
	sys, d, forest := deployEnv(t, 12, 3, 1e5)
	res, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 20, EnforceCapacity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredPairs != res.DemandedPairs {
		t.Fatalf("covered %d of %d pairs", res.CoveredPairs, res.DemandedPairs)
	}
	if res.DemandedPairs != d.PairCount() {
		t.Fatalf("demanded = %d, want %d", res.DemandedPairs, d.PairCount())
	}
	if res.MessagesDropped != 0 {
		t.Fatalf("dropped %d messages with a valid plan", res.MessagesDropped)
	}
	if res.AvgPercentError > 50 {
		t.Fatalf("error %.1f%% too high for a healthy deployment", res.AvgPercentError)
	}
	if res.PercentCollected < 80 {
		t.Fatalf("collected %.1f%%, want most observations", res.PercentCollected)
	}
}

func TestDeterministicRuns(t *testing.T) {
	sys, d, forest := deployEnv(t, 10, 2, 1e5)
	run := func() Result {
		res, err := Run(Config{
			Sys: sys, Forest: forest, Demand: d,
			Rounds: 15, EnforceCapacity: true,
			Source: BurstyWalk{Seed: 7},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestDeeperTreesAreStaler(t *testing.T) {
	sys, d, _ := deployEnv(t, 8, 1, 1e6)
	star := plan.NewTree(model.NewAttrSet(1))
	chain := plan.NewTree(model.NewAttrSet(1))
	prev := model.Central
	for _, id := range sys.NodeIDs() {
		parent := model.NodeID(1)
		if id == 1 {
			parent = model.Central
		}
		if err := star.AddNode(id, parent); err != nil {
			t.Fatal(err)
		}
		if err := chain.AddNode(id, prev); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	run := func(tr *plan.Tree) Result {
		f := plan.NewForest()
		f.Add(tr)
		res, err := Run(Config{Sys: sys, Forest: f, Demand: d, Rounds: 30})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	starRes, chainRes := run(star), run(chain)
	if starRes.AvgStaleness >= chainRes.AvgStaleness {
		t.Fatalf("star staleness %.2f >= chain %.2f",
			starRes.AvgStaleness, chainRes.AvgStaleness)
	}
	if starRes.AvgPercentError >= chainRes.AvgPercentError {
		t.Fatalf("star error %.2f%% >= chain %.2f%%",
			starRes.AvgPercentError, chainRes.AvgPercentError)
	}
}

func TestCapacityEnforcementDropsOverload(t *testing.T) {
	// Build a chain whose root cannot afford its relay load, then run
	// with enforcement: messages must drop and coverage must suffer.
	nodes := make([]model.Node, 6)
	d := task.NewDemand()
	for i := range nodes {
		id := model.NodeID(i + 1)
		nodes[i] = model.Node{ID: id, Capacity: 24, Attrs: []model.AttrID{1}}
		d.Set(id, 1, 1)
	}
	sys, err := model.NewSystem(1e6, cost.Model{PerMessage: 10, PerValue: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	chain := plan.NewTree(model.NewAttrSet(1))
	prev := model.Central
	for _, id := range sys.NodeIDs() {
		if err := chain.AddNode(id, prev); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	f := plan.NewForest()
	f.Add(chain)
	res, err := Run(Config{Sys: sys, Forest: f, Demand: d, Rounds: 10, EnforceCapacity: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDropped == 0 {
		t.Fatal("overloaded chain dropped nothing")
	}
	if res.CoveredPairs == res.DemandedPairs {
		t.Fatal("overloaded chain still covered everything")
	}
}

func TestNodeFailureLosesSubtree(t *testing.T) {
	sys, d, _ := deployEnv(t, 5, 1, 1e6)
	chain := plan.NewTree(model.NewAttrSet(1))
	prev := model.Central
	for _, id := range sys.NodeIDs() {
		if err := chain.AddNode(id, prev); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	f := plan.NewForest()
	f.Add(chain)
	// Node 2 dies at round 3: nodes 2..5 stop reaching the collector.
	res, err := Run(Config{
		Sys: sys, Forest: f, Demand: d, Rounds: 20,
		Chaos: &chaos.Config{CrashWindows: map[model.NodeID][]chaos.Window{2: {{From: 3, To: 20}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := Run(Config{Sys: sys, Forest: f, Demand: d, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPercentError <= healthy.AvgPercentError {
		t.Fatalf("failure error %.2f%% <= healthy %.2f%%",
			res.AvgPercentError, healthy.AvgPercentError)
	}
	if res.ValuesDelivered >= healthy.ValuesDelivered {
		t.Fatal("failed run delivered as many values as healthy run")
	}
}

func TestLinkDropsDegradeFreshness(t *testing.T) {
	sys, d, forest := deployEnv(t, 10, 2, 1e5)
	lossy, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d, Rounds: 20,
		Chaos: &chaos.Config{DropProb: 0.3, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(Config{Sys: sys, Forest: forest, Demand: d, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.MessagesDropped == 0 {
		t.Fatal("DropProb dropped nothing")
	}
	if lossy.AvgPercentError <= clean.AvgPercentError {
		t.Fatalf("lossy error %.2f%% <= clean %.2f%%",
			lossy.AvgPercentError, clean.AvgPercentError)
	}
}

func TestInNetworkAggregationShrinksTraffic(t *testing.T) {
	sys, d, forest := deployEnv(t, 10, 2, 1e5)
	spec := agg.NewSpec()
	spec.SetKind(1, agg.Max)
	spec.SetKind(2, agg.Max)
	aggRes, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d, Rounds: 20, Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	holRes, err := Run(Config{Sys: sys, Forest: forest, Demand: d, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if aggRes.ValuesDelivered >= holRes.ValuesDelivered {
		t.Fatalf("aggregated delivered %d values, holistic %d",
			aggRes.ValuesDelivered, holRes.ValuesDelivered)
	}
	if aggRes.CoveredPairs == 0 {
		t.Fatal("aggregation covered nothing")
	}
}

func TestPiggybackedFrequenciesReduceDeliveries(t *testing.T) {
	sys, _, _ := deployEnv(t, 6, 2, 1e5)
	full := task.NewDemand()
	half := task.NewDemand()
	for _, id := range sys.NodeIDs() {
		full.Set(id, 1, 1)
		full.Set(id, 2, 1)
		half.Set(id, 1, 1)
		half.Set(id, 2, 0.5) // attr 2 piggybacks every other round
	}
	res := core.NewPlanner().Plan(sys, full)
	fullRes, err := Run(Config{Sys: sys, Forest: res.Forest, Demand: full, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	halfRes, err := Run(Config{Sys: sys, Forest: res.Forest, Demand: half, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if halfRes.ValuesDelivered >= fullRes.ValuesDelivered {
		t.Fatalf("half-rate delivered %d, full %d",
			halfRes.ValuesDelivered, fullRes.ValuesDelivered)
	}
	if halfRes.CoveredPairs != halfRes.DemandedPairs {
		t.Fatal("piggybacked pairs not covered")
	}
}

func TestRunOverTCPTransport(t *testing.T) {
	sys, d, forest := deployEnv(t, 6, 2, 1e5)
	tr, err := transport.NewTCP(sys.NodeIDs())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	res, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 10, Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// TCP delivery is asynchronous; values may lag rounds, but the
	// deployment must function and cover pairs.
	if res.CoveredPairs < res.DemandedPairs/2 {
		t.Fatalf("TCP covered %d of %d", res.CoveredPairs, res.DemandedPairs)
	}
	if res.MessagesSent == 0 {
		t.Fatal("no messages sent over TCP")
	}
}

func TestAliasResolution(t *testing.T) {
	// Two pairs deliver the same underlying metric: attr 5 is an alias
	// of attr 1. The collector folds them into one demanded pair.
	nodes := []model.Node{{ID: 1, Capacity: 1e5, Attrs: []model.AttrID{1, 5}}}
	sys, err := model.NewSystem(1e6, cost.Default(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	d := task.NewDemand()
	d.Set(1, 1, 1)
	d.Set(1, 5, 1)
	f := plan.NewForest()
	t1 := plan.NewTree(model.NewAttrSet(1))
	if err := t1.AddNode(1, model.Central); err != nil {
		t.Fatal(err)
	}
	t2 := plan.NewTree(model.NewAttrSet(5))
	if err := t2.AddNode(1, model.Central); err != nil {
		t.Fatal(err)
	}
	f.Add(t1)
	f.Add(t2)

	res, err := Run(Config{
		Sys: sys, Forest: f, Demand: d, Rounds: 10,
		Resolve: func(a model.AttrID) model.AttrID {
			if a == 5 {
				return 1
			}
			return a
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DemandedPairs != 1 {
		t.Fatalf("demanded = %d, want 1 (alias folded)", res.DemandedPairs)
	}
	if res.CoveredPairs != 1 {
		t.Fatalf("covered = %d, want 1", res.CoveredPairs)
	}
}

func TestBurstyWalkDeterministicAndPositive(t *testing.T) {
	w := BurstyWalk{Seed: 3}
	for r := 0; r < 50; r++ {
		v := w.Value(1, 1, r)
		if v <= 0 {
			t.Fatalf("value(r=%d) = %v, want > 0", r, v)
		}
		if v != w.Value(1, 1, r) {
			t.Fatal("BurstyWalk not deterministic")
		}
	}
	if w.Value(1, 1, 0) == w.Value(2, 1, 0) && w.Value(1, 1, 0) == w.Value(1, 2, 0) {
		t.Fatal("BurstyWalk values suspiciously uniform")
	}
}

// TestAggregateInPlace pins the in-place aggregate pass on a message that
// interleaves holistic and aggregated attributes: runs come out in
// ascending attribute order, holistic runs keep arrival order, and each
// aggregated run collapses to its Combine output at the run's oldest round.
func TestAggregateInPlace(t *testing.T) {
	spec := agg.NewSpec()
	spec.SetKind(2, agg.Sum)
	spec.SetTopK(4, 2)
	spec.SetKind(5, agg.Distinct)
	v := func(node model.NodeID, a model.AttrID, round int, x float64) transport.Value {
		return transport.Value{Node: node, Attr: a, Round: round, Value: x}
	}
	in := []transport.Value{
		v(7, 4, 9, 1), v(3, 1, 9, 10), v(8, 2, 8, 2), v(7, 5, 9, 6), v(9, 4, 7, 5),
		v(4, 1, 8, 11), v(9, 2, 9, 3), v(8, 4, 9, 3), v(8, 5, 9, 6), v(9, 5, 8, 2),
		v(6, 3, 9, 4),
	}
	got := aggregate(Config{Spec: spec}, 1, in, 9)
	want := []transport.Value{
		v(3, 1, 9, 10), v(4, 1, 8, 11),
		v(1, 2, 8, 5),
		v(6, 3, 9, 4),
		v(1, 4, 7, 5), v(1, 4, 7, 3),
		v(1, 5, 8, 6), v(1, 5, 8, 2),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate =\n%+v\nwant\n%+v", got, want)
	}
	if &got[0] != &in[0] {
		t.Fatal("aggregate did not work in place on the compose buffer")
	}
}
