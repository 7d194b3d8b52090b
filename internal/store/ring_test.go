package store

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"remo/internal/model"
)

// refSeries is the reference model of one retained series: a slice
// kept sorted by round (a sample lands after every retained sample of
// an equal or older round) that drops its oldest sample beyond capacity.
type refSeries []Sample

func (r refSeries) push(s Sample, capacity int) refSeries {
	i := sort.Search(len(r), func(i int) bool { return r[i].Round > s.Round })
	r = append(r[:i:i], append([]Sample{s}, r[i:]...)...)
	if len(r) > capacity {
		r = r[1:]
	}
	return r
}

// nextRound draws the round of the next push to a series whose retained
// samples are r: in order, equal to a retained round, out of order
// inside the window, or older than every retained sample.
func nextRound(rng *rand.Rand, r refSeries, clock *int) int {
	if len(r) == 0 {
		*clock++
		return *clock
	}
	switch rng.Intn(8) {
	case 0:
		return r[rng.Intn(len(r))].Round // equal round
	case 1:
		return r[0].Round - 1 - rng.Intn(3) // older than every sample
	case 2:
		lo, hi := r[0].Round, r[len(r)-1].Round
		return lo + rng.Intn(hi-lo+1) // out of order inside the window
	default:
		*clock += 1 + rng.Intn(2)
		return *clock // in order
	}
}

// TestRingMatchesModel drives the store's rings and the reference model
// with the same pushes — in-order, out-of-order, equal-round and older
// than every retained sample, at capacities 1 to 8 — and compares every
// read after each push: Latest, Window, Summarize, LatestSince, Len and
// the EachSeries walk.
func TestRingMatchesModel(t *testing.T) {
	pairs := []model.Pair{pair(2, 1), pair(1, 3), pair(1, 1)}
	for capacity := 1; capacity <= 8; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		s := New(capacity)
		ref := make(map[model.Pair]refSeries)
		clock := 0
		for step := 0; step < 600; step++ {
			p := pairs[rng.Intn(len(pairs))]
			smp := Sample{Round: nextRound(rng, ref[p], &clock), Value: float64(step)}
			s.Observe(p, smp.Round, smp.Value)
			ref[p] = ref[p].push(smp, capacity)
			checkAgainstModel(t, capacity, step, s, ref, rng.Intn(clock+2)-1)
		}
	}
}

func checkAgainstModel(t *testing.T, capacity, step int, s *Store, ref map[model.Pair]refSeries, probe int) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("cap %d step %d: %s = %+v, want %+v", capacity, step, what, got, want)
	}
	total := 0
	var walk []series
	var since []PairSample
	for _, p := range sortedRefPairs(ref) {
		r := ref[p]
		total += len(r)
		walk = append(walk, series{Pair: p, Samples: append([]Sample(nil), r...)})
		newest := r[len(r)-1]
		if newest.Round >= probe {
			since = append(since, PairSample{Pair: p, Sample: newest})
		}
		if got, ok := s.Latest(p); !ok || got != newest {
			fail("Latest", got, newest)
		}
		var win []Sample
		for _, smp := range r {
			if smp.Round >= probe && smp.Round <= probe+3 {
				win = append(win, smp)
			}
		}
		if got := s.Window(p, probe, probe+3); !reflect.DeepEqual(got, win) {
			fail("Window", got, win)
		}
		want := Summary{Count: len(r), Min: r[0].Value, Max: r[0].Value, First: r[0].Round, Last: newest.Round}
		var sum float64
		for _, smp := range r {
			sum += smp.Value
			want.Min = min(want.Min, smp.Value)
			want.Max = max(want.Max, smp.Value)
		}
		want.Mean = sum / float64(len(r))
		if got, ok := s.Summarize(p); !ok || got != want {
			fail("Summarize", got, want)
		}
	}
	if got := s.Len(); got != total {
		fail("Len", got, total)
	}
	if got := snapshot(s); !reflect.DeepEqual(got, walk) {
		fail("EachSeries", got, walk)
	}
	if got := s.LatestSince(probe); !reflect.DeepEqual(got, since) && len(got)+len(since) > 0 {
		fail("LatestSince", got, since)
	}
}

func sortedRefPairs(ref map[model.Pair]refSeries) []model.Pair {
	out := make([]model.Pair, 0, len(ref))
	for p, r := range ref {
		if len(r) > 0 {
			out = append(out, p)
		}
	}
	model.SortPairs(out)
	return out
}
