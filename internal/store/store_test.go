package store

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"remo/internal/model"
)

func pair(n, a int) model.Pair {
	return model.Pair{Node: model.NodeID(n), Attr: model.AttrID(a)}
}

func TestStoreObserveAndLatest(t *testing.T) {
	s := New(8)
	p := pair(1, 1)
	if _, ok := s.Latest(p); ok {
		t.Fatal("Latest on empty store returned a sample")
	}
	s.Observe(p, 1, 10)
	s.Observe(p, 3, 30)
	got, ok := s.Latest(p)
	if !ok || got.Round != 3 || got.Value != 30 {
		t.Fatalf("Latest = %+v, %v", got, ok)
	}
}

func TestStoreOutOfOrderInsert(t *testing.T) {
	s := New(8)
	p := pair(1, 1)
	s.Observe(p, 5, 50)
	s.Observe(p, 2, 20) // late arrival via a slow path
	s.Observe(p, 7, 70)
	w := s.Window(p, 0, 10)
	if len(w) != 3 {
		t.Fatalf("Window = %+v", w)
	}
	for i := 1; i < len(w); i++ {
		if w[i].Round < w[i-1].Round {
			t.Fatalf("window unsorted: %+v", w)
		}
	}
	// Latest is still the newest round, not the last arrival.
	if got, _ := s.Latest(p); got.Round != 7 {
		t.Fatalf("Latest = %+v", got)
	}
}

func TestStoreRingEviction(t *testing.T) {
	s := New(4)
	p := pair(1, 1)
	for r := 0; r < 10; r++ {
		s.Observe(p, r, float64(r))
	}
	w := s.Window(p, 0, 100)
	if len(w) != 4 {
		t.Fatalf("retained %d, want 4", len(w))
	}
	if w[0].Round != 6 || w[3].Round != 9 {
		t.Fatalf("retained window = %+v", w)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreWindowBounds(t *testing.T) {
	s := New(16)
	p := pair(2, 3)
	for r := 0; r < 10; r++ {
		s.Observe(p, r, float64(r*r))
	}
	w := s.Window(p, 3, 6)
	if len(w) != 4 || w[0].Round != 3 || w[3].Round != 6 {
		t.Fatalf("Window(3,6) = %+v", w)
	}
	if got := s.Window(pair(9, 9), 0, 10); got != nil {
		t.Fatalf("Window(absent) = %+v", got)
	}
}

func TestStoreSummarize(t *testing.T) {
	s := New(16)
	p := pair(1, 2)
	for r, v := range []float64{4, 2, 6} {
		s.Observe(p, r, v)
	}
	sum, ok := s.Summarize(p)
	if !ok {
		t.Fatal("Summarize failed")
	}
	if sum.Count != 3 || sum.Min != 2 || sum.Max != 6 || sum.Mean != 4 {
		t.Fatalf("Summary = %+v", sum)
	}
	if sum.First != 0 || sum.Last != 2 {
		t.Fatalf("Summary rounds = %+v", sum)
	}
	if _, ok := s.Summarize(pair(9, 9)); ok {
		t.Fatal("Summarize(absent) succeeded")
	}
}

func TestStorePairsSorted(t *testing.T) {
	s := New(4)
	s.Observe(pair(2, 1), 0, 1)
	s.Observe(pair(1, 2), 0, 1)
	s.Observe(pair(1, 1), 0, 1)
	ps := s.Pairs()
	if len(ps) != 3 || ps[0] != pair(1, 1) || ps[2] != pair(2, 1) {
		t.Fatalf("Pairs = %v", ps)
	}
}

// TestLatestSinceMatchesPairsLatest is the property LatestSince is
// defined by: on random stores (sparse and dense, in- and out-of-order
// arrivals, evictions) and random cursors it returns exactly what the
// Pairs + per-pair Latest loop does, in the same order.
// TestRetire drops exactly the series keep rejects whose newest sample
// is older than the cutoff: a kept pair and a recent one stay, however
// old their other samples.
func TestRetire(t *testing.T) {
	s := New(4)
	s.Observe(pair(1, 1), 2, 0)  // kept
	s.Observe(pair(2, 1), 2, 0)  // retired
	s.Observe(pair(3, 1), 1, 0)  // an old sample, then
	s.Observe(pair(3, 1), 10, 0) // one at the cutoff: stays
	s.Observe(pair(4, 1), 9, 0)  // just under the cutoff: retired
	s.Retire(10, func(p model.Pair) bool { return p.Node == 1 })
	if got, want := s.Pairs(), []model.Pair{pair(1, 1), pair(3, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Retire(10): %v, want %v", got, want)
	}
}

func TestLatestSinceMatchesPairsLatest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		s := New(rng.Intn(6) + 1)
		nodes, rounds := rng.Intn(12)+1, rng.Intn(40)+1
		for i := rng.Intn(300); i > 0; i-- {
			s.Observe(pair(rng.Intn(nodes), rng.Intn(4)), rng.Intn(rounds)-5, rng.Float64())
		}
		for _, since := range []int{-6, 0, rng.Intn(rounds), rounds, rounds + 1} {
			want := []PairSample{}
			for _, p := range s.Pairs() {
				if smp, ok := s.Latest(p); ok && smp.Round >= since {
					want = append(want, PairSample{Pair: p, Sample: smp})
				}
			}
			if got := s.LatestSince(since); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d since %d: LatestSince = %v, want %v", trial, since, got, want)
			}
		}
	}
}

// TestObserveBatchMatchesObserve: a round's batch — late rounds,
// duplicates, samples older than a full ring, and a ring that wraps —
// leaves the store exactly as Observe on each record in turn does.
func TestObserveBatchMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	one, batched := New(8), New(8)
	for round := 0; round < 200; round++ {
		var recs []Record
		for i := rng.Intn(12); i > 0; i-- {
			recs = append(recs, Record{
				Pair:  pair(rng.Intn(4), 1+rng.Intn(2)),
				Round: round - rng.Intn(3)*rng.Intn(12),
				Value: rng.Float64(),
			})
		}
		for _, r := range recs {
			one.Observe(r.Pair, r.Round, r.Value)
		}
		batched.ObserveBatch(recs)
	}
	type series struct {
		p model.Pair
		s []Sample
	}
	dump := func(st *Store) []series {
		var out []series
		st.EachSeries(func(p model.Pair, s []Sample) {
			out = append(out, series{p, append([]Sample(nil), s...)})
		})
		return out
	}
	if a, b := dump(one), dump(batched); !reflect.DeepEqual(a, b) {
		t.Fatalf("ObserveBatch left %v, Observe %v", b, a)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := New(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				p := pair(rng.Intn(4)+1, rng.Intn(3)+1)
				s.Observe(p, i, rng.Float64())
				_, _ = s.Latest(p)
				_ = s.Window(p, 0, i)
				_ = s.LatestSince(i / 2)
			}
		}(w)
	}
	wg.Wait()
	if len(s.Pairs()) == 0 {
		t.Fatal("nothing stored")
	}
}

func TestProcessorTriggers(t *testing.T) {
	pr := NewProcessor(16)
	if err := pr.AddTrigger(Trigger{Name: "hot", Attr: 1, Cond: Above, Threshold: 90}); err != nil {
		t.Fatal(err)
	}
	if err := pr.AddTrigger(Trigger{Name: "hot", Attr: 1, Cond: Above, Threshold: 90}); !errors.Is(err, ErrDuplicateTrigger) {
		t.Fatalf("duplicate error = %v", err)
	}
	if err := pr.AddTrigger(Trigger{Name: "", Attr: 1, Cond: Above}); !errors.Is(err, ErrBadTrigger) {
		t.Fatalf("invalid trigger error = %v", err)
	}

	pr.Observe(pair(1, 1), 1, 95) // fires
	pr.Observe(pair(1, 1), 2, 85) // below threshold
	pr.Observe(pair(1, 2), 3, 99) // wrong attr
	alerts := pr.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	if alerts[0].Trigger != "hot" || alerts[0].Round != 1 || alerts[0].Value != 95 {
		t.Fatalf("alert = %+v", alerts[0])
	}
}

// TestProcessorHandlerOutsideLock: the alert handler runs with the
// processor's lock released, so it may call back into the processor,
// and a trigger without one is seen by HasTriggers.
func TestProcessorHandlerOutsideLock(t *testing.T) {
	pr := NewProcessor(16)
	if pr.HasTriggers() {
		t.Fatal("an empty processor reports triggers")
	}
	if err := pr.AddTrigger(Trigger{Name: "hot", Attr: 1, Cond: Above, Threshold: 90}); err != nil {
		t.Fatal(err)
	}
	if !pr.HasTriggers() {
		t.Fatal("HasTriggers = false with a trigger registered")
	}
	var seen []int
	pr.SetHandler(func(a Alert) { seen = append(seen, pr.AlertCount()) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		pr.Observe(pair(1, 1), 1, 95)
		pr.Observe(pair(1, 1), 2, 96)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("an alert handler calling back into the processor deadlocked")
	}
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Fatalf("the handler saw alert counts %v, want [1 2]", seen)
	}
}

func TestProcessorNodeScoping(t *testing.T) {
	pr := NewProcessor(16)
	if err := pr.AddTrigger(Trigger{
		Name: "n2-low", Attr: 1, Node: 2, Cond: Below, Threshold: 5,
	}); err != nil {
		t.Fatal(err)
	}
	pr.Observe(pair(1, 1), 1, 1) // other node
	pr.Observe(pair(2, 1), 1, 1) // fires
	if got := pr.AlertCount(); got != 1 {
		t.Fatalf("alerts = %d, want 1", got)
	}
}

func TestProcessorCooldown(t *testing.T) {
	pr := NewProcessor(16)
	if err := pr.AddTrigger(Trigger{
		Name: "hot", Attr: 1, Cond: Above, Threshold: 0, Cooldown: 5,
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		pr.Observe(pair(1, 1), r, 1)
	}
	// Fires at rounds 0, 5, 10.
	if got := pr.AlertCount(); got != 3 {
		t.Fatalf("alerts = %d, want 3", got)
	}
	// Cooldown is per pair: another node fires independently.
	pr.Observe(pair(2, 1), 11, 1)
	if got := pr.AlertCount(); got != 4 {
		t.Fatalf("alerts = %d, want 4", got)
	}
}

func TestProcessorHandlerAndRemove(t *testing.T) {
	pr := NewProcessor(16)
	var handled []Alert
	pr.SetHandler(func(a Alert) { handled = append(handled, a) })
	if err := pr.AddTrigger(Trigger{Name: "t", Attr: 1, Cond: Above, Threshold: 0}); err != nil {
		t.Fatal(err)
	}
	pr.Observe(pair(1, 1), 0, 1)
	if len(handled) != 1 {
		t.Fatalf("handler calls = %d", len(handled))
	}
	pr.RemoveTrigger("t")
	pr.Observe(pair(1, 1), 1, 1)
	if len(handled) != 1 {
		t.Fatal("removed trigger still fires")
	}
}

func TestProcessorAlertCap(t *testing.T) {
	pr := NewProcessor(3)
	if err := pr.AddTrigger(Trigger{Name: "t", Attr: 1, Cond: Above, Threshold: 0}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		pr.Observe(pair(1, 1), r, 1)
	}
	alerts := pr.Alerts()
	if len(alerts) != 3 || alerts[0].Round != 7 {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestConditionString(t *testing.T) {
	if Above.String() != ">" || Below.String() != "<" {
		t.Fatal("condition strings wrong")
	}
	if Condition(9).String() == "" {
		t.Fatal("unknown condition string empty")
	}
}
