package cost

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidates(t *testing.T) {
	tests := []struct {
		name    string
		c, a    float64
		wantErr bool
	}{
		{name: "valid", c: 10, a: 1},
		{name: "zero per-message", c: 0, a: 1, wantErr: true},
		{name: "zero per-value", c: 10, a: 0, wantErr: true},
		{name: "negative", c: -1, a: 1, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.c, tt.a)
			if gotErr := err != nil; gotErr != tt.wantErr {
				t.Fatalf("New(%v, %v) error = %v, wantErr %v", tt.c, tt.a, err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrInvalidModel) {
				t.Fatalf("error %v does not wrap ErrInvalidModel", err)
			}
		})
	}
}

func TestMessageCost(t *testing.T) {
	m := Model{PerMessage: 10, PerValue: 2}
	tests := []struct {
		values int
		want   float64
	}{
		{values: 0, want: 10},
		{values: 1, want: 12},
		{values: 256, want: 522},
		{values: -5, want: 10}, // negative clamps to empty message
	}
	for _, tt := range tests {
		if got := m.Message(tt.values); got != tt.want {
			t.Errorf("Message(%d) = %v, want %v", tt.values, got, tt.want)
		}
	}
}

func TestRatio(t *testing.T) {
	m := Model{PerMessage: 20, PerValue: 2}
	if got := m.Ratio(); got != 10 {
		t.Fatalf("Ratio() = %v, want 10", got)
	}
	m2 := m.WithRatio(5)
	if m2.PerMessage != 10 || m2.PerValue != 2 {
		t.Fatalf("WithRatio(5) = %+v, want C=10 a=2", m2)
	}
}

func TestRate(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{name: "empty is full rate", in: nil, want: 1},
		{name: "single", in: []float64{0.5}, want: 0.5},
		{name: "product", in: []float64{0.5, 0.2}, want: 0.1},
		{name: "NaN ignored", in: []float64{math.NaN(), 0.25}, want: 0.25},
		{name: "all NaN is full rate", in: []float64{math.NaN(), math.NaN()}, want: 1},
		{name: "clamped above", in: []float64{3, 0.5}, want: 1},
		{name: "clamped below", in: []float64{-0.5, 0.5}, want: 0},
		{name: "zero annihilates", in: []float64{0, 0.9}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Rate(tt.in...); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Rate(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestRateAlwaysInUnitInterval(t *testing.T) {
	f := func(ms []float64) bool {
		r := Rate(ms...)
		return r >= 0 && r <= 1 && !math.IsNaN(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveBounds(t *testing.T) {
	m := Default()
	if got := m.Effective(16, 0); got != m.PerMessage {
		t.Fatalf("Effective at rate 0 = %v, want PerMessage %v", got, m.PerMessage)
	}
	if got := m.Effective(16, 1); got != m.Message(16) {
		t.Fatalf("Effective at rate 1 = %v, want Message %v", got, m.Message(16))
	}
	if got := m.Effective(16, 2); got != m.Message(16) {
		t.Fatalf("Effective clamps rate above 1: got %v, want %v", got, m.Message(16))
	}
	lo, hi := m.Effective(16, 0.2), m.Effective(16, 0.7)
	if !(lo < hi) {
		t.Fatalf("Effective not monotone in rate: %v !< %v", lo, hi)
	}
}

// TestComposedRateNeverUndercounts is the frequency x prediction
// composition property. The two traffic-reduction axes are hierarchical:
// the frequency spec decides which rounds a slot is due, and dead-band
// suppression then elides a fraction of those due transmissions. The
// planner's per-slot estimate uses the product of the measured per-axis
// rates (Rate(w, r) with w = due/rounds, r = sent/due); the property is
// that a budget set from those estimates covers the running sum of the
// realized per-round charges — composing multiplicatively never
// undercounts the realized traffic.
func TestComposedRateNeverUndercounts(t *testing.T) {
	m := Default()
	f := func(seed uint32, nSlots8 uint8, rounds8 uint8) bool {
		nSlots := 1 + int(nSlots8%8)
		rounds := 1 + int(rounds8%64)
		rng := seed
		next := func(mod uint32) uint32 {
			rng = rng*1664525 + 1013904223
			return (rng >> 8) % mod
		}
		periods := make([]int, nSlots)
		suppress := make([][]bool, nSlots) // per due occurrence
		for i := range periods {
			periods[i] = 1 + int(next(5))
		}
		// Realized schedule: slot i is due when round%period == 0, and a
		// pseudo-random subset of due rounds is suppressed.
		sent := make([]int, nSlots)
		due := make([]int, nSlots)
		perRound := make([]int, rounds) // values on the wire each round
		for i := 0; i < nSlots; i++ {
			for r := 0; r < rounds; r++ {
				if r%periods[i] != 0 {
					continue
				}
				due[i]++
				if next(4) == 0 { // ~25% suppressed
					suppress[i] = append(suppress[i], true)
					continue
				}
				sent[i]++
				perRound[r]++
			}
		}
		// Planner estimate from measured per-axis rates.
		budget := float64(rounds) * m.PerMessage
		for i := 0; i < nSlots; i++ {
			w := float64(due[i]) / float64(rounds)
			r := 1.0
			if due[i] > 0 {
				r = float64(sent[i]) / float64(due[i])
			}
			budget += float64(rounds) * m.Values(1) * Rate(w, r)
		}
		used := 0.0
		for r := 0; r < rounds; r++ {
			used += m.Message(perRound[r])
			if used > budget+1e-9 {
				t.Logf("round %d over budget: used %v > %v", r, used, budget)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
