package cost

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestTopologyEdgeCostDefaults(t *testing.T) {
	var nilTopo *Topology
	if got := nilTopo.EdgeCost("a", "b"); got != 1 {
		t.Fatalf("nil topology EdgeCost = %v, want 1", got)
	}
	topo := NewTopology(0, 0)
	if got := topo.EdgeCost("a", "a"); got != 1 {
		t.Fatalf("zero-value intra EdgeCost = %v, want 1", got)
	}
	if got := topo.EdgeCost("a", "b"); got != DefaultInterRegionCost {
		t.Fatalf("zero-value inter EdgeCost = %v, want %v", got, DefaultInterRegionCost)
	}
}

func TestTopologyEdgeCostExplicit(t *testing.T) {
	topo := NewTopology(2, 7)
	if got := topo.EdgeCost("a", "a"); got != 2 {
		t.Fatalf("intra EdgeCost = %v, want 2", got)
	}
	if got := topo.EdgeCost("a", "b"); got != 7 {
		t.Fatalf("inter EdgeCost = %v, want 7", got)
	}
}

func TestTopologyLinkOverride(t *testing.T) {
	topo := NewTopology(1, 10)
	topo.SetLink("b", "a", 3) // reversed order: key is undirected
	if got := topo.EdgeCost("a", "b"); got != 3 {
		t.Fatalf("overridden EdgeCost(a,b) = %v, want 3", got)
	}
	if got := topo.EdgeCost("b", "a"); got != 3 {
		t.Fatalf("overridden EdgeCost(b,a) = %v, want 3", got)
	}
	if got := topo.EdgeCost("a", "c"); got != 10 {
		t.Fatalf("unrelated EdgeCost = %v, want 10", got)
	}
	// Same-region override shadows Intra for that region only.
	topo.SetLink("c", "c", 5)
	if got := topo.EdgeCost("c", "c"); got != 5 {
		t.Fatalf("self-link EdgeCost = %v, want 5", got)
	}
	if got := topo.EdgeCost("a", "a"); got != 1 {
		t.Fatalf("other intra EdgeCost = %v, want 1", got)
	}
	// Non-positive overrides and nil receivers are ignored safely.
	topo.SetLink("a", "b", 0)
	if got := topo.EdgeCost("a", "b"); got != 3 {
		t.Fatalf("EdgeCost after zero SetLink = %v, want 3", got)
	}
	var nilTopo *Topology
	nilTopo.SetLink("a", "b", 2) // must not panic
}

func TestTopologyValidate(t *testing.T) {
	var nilTopo *Topology
	if err := nilTopo.Validate(); err != nil {
		t.Fatalf("nil topology Validate: %v", err)
	}
	if err := NewTopology(1, 10).Validate(); err != nil {
		t.Fatalf("valid topology Validate: %v", err)
	}
	err := NewTopology(-1, 10).Validate()
	if !errors.Is(err, ErrInvalidModel) {
		t.Fatalf("negative intra Validate = %v, want ErrInvalidModel", err)
	}
	err = NewTopology(1, -2).Validate()
	if !errors.Is(err, ErrInvalidModel) {
		t.Fatalf("negative inter Validate = %v, want ErrInvalidModel", err)
	}
}

func TestTopologyClone(t *testing.T) {
	var nilTopo *Topology
	if nilTopo.Clone() != nil {
		t.Fatal("nil Clone should stay nil")
	}
	topo := NewTopology(1, 10)
	topo.SetLink("a", "b", 3)
	c := topo.Clone()
	c.SetLink("a", "b", 4)
	if got := topo.EdgeCost("a", "b"); got != 3 {
		t.Fatalf("original EdgeCost after clone mutation = %v, want 3", got)
	}
	if got := c.EdgeCost("a", "b"); got != 4 {
		t.Fatalf("clone EdgeCost = %v, want 4", got)
	}
}

// TestTopologyPricedRateNeverUndercounts is the WAN composition
// property, mirroring TestComposedRateNeverUndercounts: edge-cost
// multipliers compose with the frequency x prediction rate product by
// plain multiplication, and a budget set from the topology-priced
// per-slot estimates covers the running sum of the realized
// topology-priced charges. Edge pricing is undirected, so the estimate
// prices (src, dst) while the realized charges price (dst, src) —
// catching any asymmetry between the planner's estimate path and the
// verifier's re-pricing path, link overrides included.
func TestTopologyPricedRateNeverUndercounts(t *testing.T) {
	m := Default()
	regions := []string{"r0", "r1", "r2"}
	f := func(seed uint32, nSlots8, rounds8 uint8, intra16, inter16, link16 uint16) bool {
		nSlots := 1 + int(nSlots8%8)
		rounds := 1 + int(rounds8%64)
		topo := NewTopology(1+float64(intra16%4), 1+float64(inter16%32))
		topo.SetLink("r1", "r2", 1+float64(link16%16))
		rng := seed
		next := func(mod uint32) uint32 {
			rng = rng*1664525 + 1013904223
			return (rng >> 8) % mod
		}
		type slot struct {
			src, dst string
			period   int
			values   int
		}
		slots := make([]slot, nSlots)
		for i := range slots {
			slots[i] = slot{
				src:    regions[next(3)],
				dst:    regions[next(3)],
				period: 1 + int(next(5)),
				values: 1 + int(next(4)),
			}
		}
		// Realized schedule: slot i is due when round%period == 0, a
		// pseudo-random subset of due rounds is suppressed, and each sent
		// occurrence is one message over the slot's edge.
		sent := make([]int, nSlots)
		due := make([]int, nSlots)
		var charges []float64
		for i, s := range slots {
			for r := 0; r < rounds; r++ {
				if r%s.period != 0 {
					continue
				}
				due[i]++
				if next(4) == 0 { // ~25% suppressed
					continue
				}
				sent[i]++
				charges = append(charges, topo.EdgeCost(s.dst, s.src)*m.Message(s.values))
			}
		}
		// Planner estimate: per-slot effective cost at the composed rate,
		// priced over the forward edge.
		budget := 0.0
		for i, s := range slots {
			w := float64(due[i]) / float64(rounds)
			r := 1.0
			if due[i] > 0 {
				r = float64(sent[i]) / float64(due[i])
			}
			budget += float64(rounds) * topo.EdgeCost(s.src, s.dst) * m.Effective(s.values, Rate(w, r))
		}
		used := 0.0
		for i, c := range charges {
			used += c
			if used > budget+1e-9 {
				t.Logf("charge %d over budget: used %v > %v", i, used, budget)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
