package cluster

import (
	"math/rand"
	"sync"
	"testing"

	"remo/internal/agg"
	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
)

// starEnv builds a 1-attribute star over n nodes with ample capacity.
func starEnv(t *testing.T, n int) (*model.System, *task.Demand, *plan.Forest) {
	t.Helper()
	nodes := make([]model.Node, n)
	d := task.NewDemand()
	for i := range nodes {
		id := model.NodeID(i + 1)
		nodes[i] = model.Node{ID: id, Capacity: 1e6, Attrs: []model.AttrID{1}}
		d.Set(id, 1, 1)
	}
	sys, err := model.NewSystem(1e6, cost.Default(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	tr := plan.NewTree(model.NewAttrSet(1))
	for i := range nodes {
		parent := model.NodeID(1)
		if i == 0 {
			parent = model.Central
		}
		if err := tr.AddNode(model.NodeID(i+1), parent); err != nil {
			t.Fatal(err)
		}
	}
	f := plan.NewForest()
	f.Add(tr)
	return sys, d, f
}

func TestObserverSeesEveryDeliveredValue(t *testing.T) {
	sys, d, f := starEnv(t, 6)
	var mu sync.Mutex
	seen := make(map[model.Pair]int)
	res, err := Run(Config{
		Sys: sys, Forest: f, Demand: d, Rounds: 10,
		Observer: func(p model.Pair, round int, v float64) {
			mu.Lock()
			seen[p]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, c := range seen {
		total += c
	}
	if total != res.ValuesDelivered {
		t.Fatalf("observer saw %d values, collector counted %d", total, res.ValuesDelivered)
	}
	if len(seen) != 6 {
		t.Fatalf("observer saw %d pairs, want 6", len(seen))
	}
}

func TestAggregateErrorMeasuresAggregate(t *testing.T) {
	sys, d, f := starEnv(t, 5)
	spec := agg.NewSpec()
	spec.SetKind(1, agg.Max)

	// A constant source: the MAX aggregate is exact once delivered, so
	// the error must vanish after warm-up.
	src := ValueFunc(func(n model.NodeID, a model.AttrID, r int) float64 {
		return float64(n) * 10
	})
	res, err := Run(Config{
		Sys: sys, Forest: f, Demand: d, Rounds: 30, Spec: spec, Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DemandedPairs != 1 {
		t.Fatalf("aggregated demanded = %d, want 1", res.DemandedPairs)
	}
	if res.CoveredPairs != 1 {
		t.Fatalf("covered = %d", res.CoveredPairs)
	}
	// Only the first rounds (before the first delivery) contribute
	// error: avg over 30 rounds stays small.
	if res.AvgPercentError > 15 {
		t.Fatalf("aggregate error = %.2f%%, want ~warm-up only", res.AvgPercentError)
	}
}

func TestCentralCapacityDropsAtCollector(t *testing.T) {
	sys, d, f := starEnv(t, 6)
	// The root's message carries 6 values: C + 6a = 16 > 10, so the
	// collector drops every round.
	tight := sys.Clone()
	tight.CentralCapacity = 10
	res, err := Run(Config{
		Sys: tight, Forest: f, Demand: d, Rounds: 5, EnforceCapacity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredPairs != 0 {
		t.Fatalf("covered %d pairs through a starved collector", res.CoveredPairs)
	}
	if res.MessagesDropped == 0 {
		t.Fatal("no drops recorded at the collector")
	}
	if res.AvgPercentError < 99 {
		t.Fatalf("error = %.2f%%, want ~100%%", res.AvgPercentError)
	}
}

func TestWeightPeriod(t *testing.T) {
	tests := []struct {
		w    float64
		want int
	}{
		{1, 1},
		{0.5, 2},
		{0.25, 4},
		{0.34, 3},
		{0, 1},   // zero weight defends against bad input
		{1.5, 1}, // overweight clamps to every round
	}
	for _, tt := range tests {
		if got := weightPeriod(tt.w); got != tt.want {
			t.Errorf("weightPeriod(%v) = %d, want %d", tt.w, got, tt.want)
		}
	}
}

func TestPiggybackSkipsOffRounds(t *testing.T) {
	sys, _, f := starEnv(t, 3)
	d := task.NewDemand()
	for _, id := range sys.NodeIDs() {
		d.Set(id, 1, 0.25) // report every 4th round
	}
	res, err := Run(Config{Sys: sys, Forest: f, Demand: d, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	// 20 rounds at period 4 = 5 due observations per pair; values
	// delivered per pair can be at most that (minus tail latency).
	maxExpected := 3 * 5
	if res.ValuesDelivered > maxExpected {
		t.Fatalf("delivered %d values, want <= %d (piggyback period)", res.ValuesDelivered, maxExpected)
	}
	if res.ValuesDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestErrorSeriesConverges recovers each round's error from the running
// average: every round scores the same five pairs, so round k's error is
// k·avg_k − (k−1)·avg_{k−1}.
func TestErrorSeriesConverges(t *testing.T) {
	sys, d, f := starEnv(t, 5)
	src := ValueFunc(func(n model.NodeID, a model.AttrID, r int) float64 {
		return 100
	})
	m, err := NewMachine(Config{Sys: sys, Forest: f, Demand: d, Rounds: 12, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	var series []float64
	prev := 0.0
	for k := 1; k <= 12; k++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		avg := m.Result().AvgPercentError
		series = append(series, float64(k)*avg-float64(k-1)*prev)
		prev = avg
	}
	// Round 0: only the root's own value has reached the collector (its
	// message is absorbed the same round), so 4 of 5 pairs are still
	// missing -> 80% error.
	if series[0] < 79 || series[0] > 81 {
		t.Fatalf("round-0 error = %v, want ~80", series[0])
	}
	// With a constant signal the error vanishes once everything arrives.
	if last := series[len(series)-1]; last > 1 {
		t.Fatalf("final error = %v, want ~0", last)
	}
	// The series never increases for a constant source.
	for i := 1; i < len(series); i++ {
		if series[i] > series[i-1]+1e-9 {
			t.Fatalf("series not monotone: %v", series)
		}
	}
}

// TestRoundWindowDedups walks one pair's delivery window: duplicates and
// rounds older than the window never count, late rounds inside it do,
// and the window keeps counting however far the session runs.
func TestRoundWindowDedups(t *testing.T) {
	var w roundWindow
	for _, step := range []struct {
		round int
		first bool
	}{
		{5, true}, {5, false}, {3, true}, {-1, false},
		{dedupRounds + 2, true},   // slides the window past round 2
		{4, true},                 // still inside: (2, dedupRounds+2]
		{2, false},                // fell out
		{5, false},                // inside and already seen
		{5 * dedupRounds, true},   // a jump clears the window
		{4*dedupRounds + 1, true}, // inside the new window, never seen
		{dedupRounds + 2, false},  // long gone
	} {
		if got := w.mark(step.round, 0); got != step.first {
			t.Fatalf("mark(%d) = %v, want %v", step.round, got, step.first)
		}
	}
	// A fixed-length run sizes the window to the run.
	var short roundWindow
	short.mark(0, 12)
	if len(short.bits) != 1 {
		t.Fatalf("12-round run got a %d-word window", len(short.bits))
	}
}

// bitmapWindow is roundWindow before it kept the newest word inline:
// every round in one bitmap. TestRoundWindowMatchesBitmap checks the
// two against each other.
type bitmapWindow struct {
	newest int
	bits   []uint64
}

func (w *bitmapWindow) mark(r, horizon int) bool {
	if r < 0 {
		return false
	}
	if w.bits == nil {
		span := dedupRounds
		if horizon > 0 && horizon < span {
			span = horizon + 63
		}
		w.bits = make([]uint64, span/64)
		w.newest = r
	}
	span := 64 * len(w.bits)
	switch {
	case r-w.newest >= span:
		clear(w.bits)
		w.newest = r
	case r > w.newest:
		for q := w.newest + 1; q <= r; q++ {
			w.bits[q%span/64] &^= 1 << uint(q%64)
		}
		w.newest = r
	case r <= w.newest-span:
		return false
	}
	word, bit := r%span/64, uint(r%64)
	if w.bits[word]&(1<<bit) != 0 {
		return false
	}
	w.bits[word] |= 1 << bit
	return true
}

// TestRoundWindowMatchesBitmap: over random delivery streams — mostly
// in order, with duplicates, late rounds inside and outside the window,
// jumps past it and rounds that wrap onto the newest round's slot —
// roundWindow answers every mark as the plain bitmap does, at run
// horizons from one word to the full window.
func TestRoundWindowMatchesBitmap(t *testing.T) {
	for _, horizon := range []int{0, 1, 10, 100, 200, 1000} {
		span := dedupRounds
		if horizon > 0 && horizon < span {
			span = (horizon + 63) / 64 * 64
		}
		// The bitmap clears a round at a time, so a full window's jumps
		// cost it thousands of rounds each: fewer seeds there.
		seeds := 100
		if span == dedupRounds {
			seeds = 3
		}
		if testing.Short() {
			seeds = max(1, seeds/10)
		}
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			var got roundWindow
			var want bitmapWindow
			r := rng.Intn(3 * span)
			for i := 0; i < 20000; i++ {
				switch k := rng.Intn(100); {
				case k < 60:
					r++
				case k < 70:
					r += 1 + rng.Intn(70)
				case k < 72:
					r += span - 64 + rng.Intn(128)
				case k < 73:
					r += 2 * span
				}
				mark := r
				switch k := rng.Intn(100); {
				case k < 15:
					mark = r - rng.Intn(64)
				case k < 25:
					mark = r - rng.Intn(span+128)
				case k < 30:
					mark = r - span + rng.Intn(2)
				case k < 32:
					mark = -1 - rng.Intn(3)
				}
				if g, w := got.mark(mark, horizon), want.mark(mark, horizon); g != w {
					t.Fatalf("horizon %d seed %d mark %d: mark(%d) = %v, the bitmap says %v",
						horizon, seed, i, mark, g, w)
				}
			}
			if len(got.bits) != len(want.bits) {
				t.Fatalf("horizon %d: %d words, the bitmap holds %d", horizon, len(got.bits), len(want.bits))
			}
		}
	}
}
