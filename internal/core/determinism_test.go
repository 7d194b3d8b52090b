package core

import (
	"math"
	"math/rand"
	"testing"

	"remo/internal/freq"
	"remo/internal/model"
)

// TestPlanDeterministicUnderFrequencies: with fractional piggyback
// weights, repeated plans of one system are the same plan at the same
// float cost — every weight and usage sum runs in node/attribute order.
func TestPlanDeterministicUnderFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sys, d := randomEnv(t, rng, 10, 8, 40, 120, 200)
	spec := freq.NewSpec()
	for a := model.AttrID(1); a <= 8; a++ {
		if err := spec.Set(a, float64(3+rng.Intn(7))); err != nil {
			t.Fatal(err)
		}
	}
	d = spec.Apply(d)

	first := NewPlanner().Plan(sys, d)
	fp, cost := first.Forest.Fingerprint(), math.Float64bits(first.Stats.TotalCost)
	for i := 1; i < 15; i++ {
		res := NewPlanner().Plan(sys, d)
		if got := res.Forest.Fingerprint(); got != fp {
			t.Fatalf("plan %d: fingerprint %#x, want %#x", i, got, fp)
		}
		if got := math.Float64bits(res.Stats.TotalCost); got != cost {
			t.Fatalf("plan %d: TotalCost bits %#x, want %#x", i, got, cost)
		}
	}
}
