package tree

import (
	"math/rand"
	"testing"

	"remo/internal/agg"
	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/task"
)

// TestRandomizedInvariantsWithFunnels fuzzes all builders over random
// systems, demands AND aggregation specs, cross-checking the builders'
// incremental bookkeeping against a full recomputation.
func TestRandomizedInvariantsWithFunnels(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kinds := []agg.Kind{agg.Holistic, agg.Sum, agg.Max, agg.TopK, agg.Count}
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(16)
		attrs := []model.AttrID{1, 2, 3, 4}
		spec := agg.NewSpec()
		for _, a := range attrs {
			kind := kinds[rng.Intn(len(kinds))]
			if kind == agg.TopK {
				spec.SetTopK(a, 1+rng.Intn(4))
			} else {
				spec.SetKind(a, kind)
			}
		}

		nodes := make([]model.Node, n)
		d := task.NewDemand()
		avail := make(map[model.NodeID]float64, n)
		for i := range nodes {
			id := model.NodeID(i + 1)
			capacity := 20 + rng.Float64()*70
			nodes[i] = model.Node{ID: id, Capacity: capacity, Attrs: attrs}
			avail[id] = capacity
			for _, a := range attrs {
				if rng.Intn(3) > 0 {
					// Mixed integral and piggyback weights.
					w := 1.0
					if rng.Intn(4) == 0 {
						w = 0.5
					}
					d.Set(id, a, w)
				}
			}
			if d.AttrsOf(id).Empty() {
				d.Set(id, attrs[0], 1)
			}
		}
		sys, err := model.NewSystem(300+rng.Float64()*700,
			cost.Model{PerMessage: 2 + rng.Float64()*30, PerValue: 1}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		set := model.NewAttrSet(attrs...)
		ctx := Context{
			Sys:          sys,
			Demand:       d,
			Spec:         spec,
			Attrs:        set,
			Nodes:        d.Participants(set),
			Avail:        availFor(d.Participants(set), avail),
			CentralAvail: sys.CentralCapacity,
		}
		for _, s := range Schemes() {
			r := New(s).Build(ctx)
			checkResult(t, ctx, r)
		}
		// Both adjusting-variant extremes must also hold the invariants.
		for _, opts := range []Opts{{}, {BranchReattach: true, SubtreeOnly: true}} {
			r := NewAdaptive(opts).Build(ctx)
			checkResult(t, ctx, r)
		}
	}
}

// TestAdaptiveNeverBelowStar checks a dominance property on shared
// instances: the construct/adjust iteration starts from STAR's strategy,
// so it must never place fewer nodes than STAR.
func TestAdaptiveNeverBelowStar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(25)
		capacity := 25 + rng.Float64()*60
		central := 300 + rng.Float64()*700
		ctx, _, _ := env(t, n, capacity, central)
		star := New(Star).Build(ctx)
		ctx2, _, _ := env(t, n, capacity, central)
		adaptive := New(Adaptive).Build(ctx2)
		if adaptive.Tree.Size() < star.Tree.Size() {
			t.Fatalf("trial %d (n=%d cap=%.1f): ADAPTIVE %d < STAR %d",
				trial, n, capacity, adaptive.Tree.Size(), star.Tree.Size())
		}
	}
}
