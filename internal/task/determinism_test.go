package task

import (
	"math"
	"testing"

	"remo/internal/model"
)

// TestLocalWeightDeterministic: a node's summed weight over fractional
// (frequency-scaled) weights is the same float on every call, because it
// is summed in attribute order rather than in map order.
func TestLocalWeightDeterministic(t *testing.T) {
	d := NewDemand()
	var attrs []model.AttrID
	for a := model.AttrID(1); a <= 12; a++ {
		d.Set(7, a, 1/float64(a+2))
		attrs = append(attrs, a)
	}
	set := model.NewAttrSet(attrs...)
	want := math.Float64bits(d.LocalWeight(7, set))
	for i := 0; i < 1000; i++ {
		if got := math.Float64bits(d.LocalWeight(7, set)); got != want {
			t.Fatalf("call %d: LocalWeight bits %#x, want %#x", i, got, want)
		}
	}
}
