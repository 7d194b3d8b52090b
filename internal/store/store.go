// Package store implements the data collector's repository (§2.2 of the
// paper): it retains collected attribute values as bounded per-pair time
// series and serves lookups for users and higher-level applications.
// Its companion, the result processor (processor.go), executes concrete
// monitoring operations such as threshold triggers.
package store

import (
	"sort"
	"sync"

	"remo/internal/model"
)

// Sample is one collected observation of a node-attribute pair.
type Sample struct {
	// Round is the collection round the value was observed at (the
	// producer's clock, not the arrival time).
	Round int
	// Value is the observed value.
	Value float64
}

// Store retains the most recent samples of every collected pair in
// fixed-size ring buffers. It is safe for concurrent use: the emulated
// collector appends while readers query.
type Store struct {
	mu       sync.RWMutex
	capacity int
	series   map[model.Pair]*ring
}

// DefaultCapacity is the per-series ring size used when none is given.
const DefaultCapacity = 128

// New returns a store retaining up to capacity samples per pair
// (DefaultCapacity if capacity <= 0).
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		series:   make(map[model.Pair]*ring),
	}
}

// Observe appends a sample for pair p. Out-of-order arrivals (an older
// round than the newest retained sample) are accepted and kept sorted.
func (s *Store) Observe(p model.Pair, round int, value float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seriesOf(p).push(Sample{Round: round, Value: value})
}

// Record is one observation of a pair: what ObserveBatch takes, and
// what the journal persists of a round (journal.SampleRec).
type Record struct {
	Pair  model.Pair
	Round int
	Value float64
}

// ObserveBatch appends a round's samples in order under one lock: the
// store ends as Observe on each record in turn would leave it.
func (s *Store) ObserveBatch(recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		s.seriesOf(rec.Pair).push(Sample{Round: rec.Round, Value: rec.Value})
	}
}

// seriesOf returns pair p's series, creating it on p's first sample. The
// caller holds s.mu.
func (s *Store) seriesOf(p model.Pair) *ring {
	r, ok := s.series[p]
	if !ok {
		r = newRing(s.capacity)
		s.series[p] = r
	}
	return r
}

// Latest returns the newest sample of pair p.
func (s *Store) Latest(p model.Pair) (Sample, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.series[p]
	if !ok || r.len() == 0 {
		return Sample{}, false
	}
	return r.newest(), true
}

// Window returns the retained samples of pair p with from <= Round <=
// to, oldest first.
func (s *Store) Window(p model.Pair, from, to int) []Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.series[p]
	if !ok {
		return nil
	}
	var out []Sample
	for _, smp := range r.buf {
		if smp.Round >= from && smp.Round <= to {
			out = append(out, smp)
		}
	}
	return out
}

// Pairs returns every pair with at least one retained sample, sorted.
func (s *Store) Pairs() []model.Pair {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]model.Pair, 0, len(s.series))
	for p, r := range s.series {
		if r.len() > 0 {
			out = append(out, p)
		}
	}
	model.SortPairs(out)
	return out
}

// PairSample is one sample tagged with the pair it belongs to.
type PairSample struct {
	Pair model.Pair
	Sample
}

// LatestSince returns the newest sample of every pair whose newest
// sample is at or after round since, sorted by pair — what Pairs plus a
// Latest per pair would return, in one pass under one read lock, so a
// full read neither sorts pairs it will filter out nor contends with
// Observe once per pair.
func (s *Store) LatestSince(since int) []PairSample {
	s.mu.RLock()
	out := make([]PairSample, 0, len(s.series))
	for p, r := range s.series {
		if r.len() > 0 && r.newest().Round >= since {
			out = append(out, PairSample{Pair: p, Sample: r.newest()})
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Pair.Less(out[j].Pair) })
	return out
}

// Retire drops the series of every pair keep rejects whose newest
// sample is older than round before.
func (s *Store) Retire(before int, keep func(model.Pair) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, r := range s.series {
		if (r.len() == 0 || r.newest().Round < before) && !keep(p) {
			delete(s.series, p)
		}
	}
}

// Len returns the total number of retained samples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int
	for _, r := range s.series {
		n += r.len()
	}
	return n
}

// Capacity returns the per-series retention bound.
func (s *Store) Capacity() int { return s.capacity }

// EachSeries calls fn with every retained series in canonical pair
// order, oldest sample first, under the store's read lock — the walk a
// durable snapshot encodes. samples aliases the ring: fn must not retain
// or modify it, and must not call back into the store. Replaying the
// walk through Observe on a store of the same capacity reproduces the
// retained state bit-identically (in-order appends land on the ring's
// fast path and eviction order matches).
func (s *Store) EachSeries(fn func(p model.Pair, samples []Sample)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pairs := make([]model.Pair, 0, len(s.series))
	for p, r := range s.series {
		if r.len() > 0 {
			pairs = append(pairs, p)
		}
	}
	model.SortPairs(pairs)
	for _, p := range pairs {
		fn(p, s.series[p].buf)
	}
}

// Summary aggregates a pair's retained samples.
type Summary struct {
	Count    int
	Min, Max float64
	Mean     float64
	// First and Last are the oldest and newest retained rounds.
	First, Last int
}

// Summarize computes the summary of pair p's retained samples.
func (s *Store) Summarize(p model.Pair) (Summary, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.series[p]
	if !ok || r.len() == 0 {
		return Summary{}, false
	}
	samples := r.buf
	sum := Summary{
		Count: len(samples),
		Min:   samples[0].Value,
		Max:   samples[0].Value,
		First: samples[0].Round,
		Last:  samples[len(samples)-1].Round,
	}
	var total float64
	for _, smp := range samples {
		total += smp.Value
		if smp.Value < sum.Min {
			sum.Min = smp.Value
		}
		if smp.Value > sum.Max {
			sum.Max = smp.Value
		}
	}
	sum.Mean = total / float64(len(samples))
	return sum, true
}

// ring is a fixed-capacity sample buffer kept sorted by round. The
// retained samples are a window (buf) sliding over a backing array
// (back): evicting the oldest advances the window's start, and only
// when the window reaches the end of the backing array are the samples
// copied back to its front — one cap-sized copy per cap pushes, so a
// push costs O(1) amortized and allocates nothing once the ring is
// full. The backing array starts at cap and doubles to 2×cap the first
// time the ring overflows, so a series that never fills never pays for
// the slack.
type ring struct {
	buf  []Sample
	back []Sample
	cap  int
}

func newRing(capacity int) *ring {
	back := make([]Sample, capacity)
	return &ring{buf: back[:0], back: back, cap: capacity}
}

func (r *ring) len() int { return len(r.buf) }

func (r *ring) push(s Sample) {
	// Common case: an in-order append, which reads only the newest
	// sample.
	if n := len(r.buf); n > 0 && s.Round < r.buf[n-1].Round {
		r.insert(s)
		return
	}
	if len(r.buf) == cap(r.buf) {
		r.compact()
	}
	r.buf = append(r.buf, s)
	if len(r.buf) > r.cap {
		r.buf = r.buf[1:] // drop the oldest
	}
}

// insert places an out-of-order sample at its sorted position.
func (r *ring) insert(s Sample) {
	if len(r.buf) == r.cap && s.Round < r.buf[0].Round {
		return // older than every retained sample: evicted on arrival
	}
	if len(r.buf) == cap(r.buf) {
		r.compact()
	}
	i := sort.Search(len(r.buf), func(i int) bool {
		return r.buf[i].Round > s.Round
	})
	r.buf = append(r.buf, Sample{})
	copy(r.buf[i+1:], r.buf[i:])
	r.buf[i] = s
	if len(r.buf) > r.cap {
		r.buf = r.buf[1:] // drop the oldest
	}
}

// compact makes room for one more sample at the window's end: it grows
// the backing array to 2×cap on the first overflow, and afterwards
// copies the window back to the array's front.
func (r *ring) compact() {
	if len(r.back) < 2*r.cap {
		r.back = make([]Sample, 2*r.cap)
	}
	n := copy(r.back, r.buf)
	r.buf = r.back[:n]
}

func (r *ring) newest() Sample { return r.buf[len(r.buf)-1] }
