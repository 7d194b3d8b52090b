package store

import (
	"reflect"
	"testing"

	"remo/internal/model"
)

// series is one pair's retained samples as EachSeries walks them.
type series struct {
	Pair    model.Pair
	Samples []Sample
}

// snapshot copies every retained series, in walk order.
func snapshot(s *Store) []series {
	var out []series
	s.EachSeries(func(p model.Pair, samples []Sample) {
		out = append(out, series{Pair: p, Samples: append([]Sample(nil), samples...)})
	})
	return out
}

// TestDumpReplayBitIdentical is the durability contract of the store:
// replaying the EachSeries walk through Observe on a fresh store of the same
// capacity reproduces the retained state exactly — ordering,
// out-of-order inserts and bounded-retention eviction included.
func TestDumpReplayBitIdentical(t *testing.T) {
	const capacity = 4
	orig := New(capacity)
	p1 := model.Pair{Node: 1, Attr: 1}
	p2 := model.Pair{Node: 2, Attr: 3}

	// In-order appends past capacity (evicts rounds 0 and 1)...
	for r := 0; r < capacity+2; r++ {
		orig.Observe(p1, r, float64(r)*1.5)
	}
	// ...and an out-of-order arrival landing mid-ring.
	orig.Observe(p2, 10, 100)
	orig.Observe(p2, 12, 120)
	orig.Observe(p2, 11, 110)

	replay := New(capacity)
	for _, sd := range snapshot(orig) {
		for _, smp := range sd.Samples {
			replay.Observe(sd.Pair, smp.Round, smp.Value)
		}
	}

	if !reflect.DeepEqual(snapshot(replay), snapshot(orig)) {
		t.Fatalf("replayed dump diverges:\n got %+v\nwant %+v", snapshot(replay), snapshot(orig))
	}
	if replay.Len() != orig.Len() || replay.Capacity() != orig.Capacity() {
		t.Fatalf("len/cap = %d/%d, want %d/%d",
			replay.Len(), replay.Capacity(), orig.Len(), orig.Capacity())
	}
	for _, p := range []model.Pair{p1, p2} {
		gl, gok := replay.Latest(p)
		wl, wok := orig.Latest(p)
		if gok != wok || gl != wl {
			t.Fatalf("latest(%v) = %+v,%v, want %+v,%v", p, gl, gok, wl, wok)
		}
		if !reflect.DeepEqual(replay.Window(p, 0, 100), orig.Window(p, 0, 100)) {
			t.Fatalf("window(%v) diverges", p)
		}
	}
	// Eviction happened, so the contract covers the wrapped-ring case.
	if got := orig.Window(p1, 0, 1); len(got) != 0 {
		t.Fatalf("evicted rounds still present: %+v", got)
	}
}

// TestCooldownRoundTrip restores trigger re-arm state the way crash
// recovery does — RestoreCooldowns before AddTrigger — and checks the
// trigger stays armed exactly as it was: suppressed inside the
// cooldown window, firing after it.
func TestCooldownRoundTrip(t *testing.T) {
	pair := model.Pair{Node: 1, Attr: 1}
	trig := Trigger{Name: "hot", Attr: 1, Cond: Above, Threshold: 10, Cooldown: 5}

	orig := NewProcessor(0)
	if err := orig.AddTrigger(trig); err != nil {
		t.Fatal(err)
	}
	orig.Observe(pair, 7, 99) // fires; re-armed at round 12
	if orig.AlertCount() != 1 {
		t.Fatalf("alerts = %d, want 1", orig.AlertCount())
	}

	state := orig.Cooldowns()
	restored := NewProcessor(0)
	restored.RestoreCooldowns(state)
	if err := restored.AddTrigger(trig); err != nil {
		t.Fatal(err)
	}

	restored.Observe(pair, 9, 99) // inside the restored cooldown
	if restored.AlertCount() != 0 {
		t.Fatalf("restored trigger re-fired inside cooldown: %+v", restored.Alerts())
	}
	restored.Observe(pair, 12, 99) // cooldown elapsed
	if restored.AlertCount() != 1 {
		t.Fatalf("restored trigger did not re-arm: alerts = %d", restored.AlertCount())
	}

	// The snapshot is a deep copy: mutating the live processor after
	// taking it must not retroactively change the checkpointed state.
	orig.Observe(pair, 50, 99)
	if got := state["hot"][pair]; got != 7 {
		t.Fatalf("snapshot mutated: lastFire = %d, want 7", got)
	}
}
