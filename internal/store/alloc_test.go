//go:build !race

package store

import "testing"

// TestAllocsObserveFullSeries pins the ring's steady state: once a
// series is full, accepting a value evicts the oldest in place and
// allocates nothing. Excluded from race builds because the race runtime
// instruments allocations.
func TestAllocsObserveFullSeries(t *testing.T) {
	s := New(DefaultCapacity)
	p := pair(1, 1)
	round := 0
	for ; round < 3*DefaultCapacity; round++ {
		s.Observe(p, round, float64(round))
	}
	allocs := testing.AllocsPerRun(4*DefaultCapacity, func() {
		s.Observe(p, round, float64(round))
		round++
	})
	if allocs != 0 {
		t.Fatalf("Observe on a full series allocates %.2f/op, want 0", allocs)
	}
}
