package remo

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"remo/internal/journal"
)

// TestMemorySizedByDemand runs a journaled session for 20 000 rounds
// while its task set slides one attribute along a 64-attribute universe
// every 200 rounds — the universe is eight times one demand — and
// checks that what the collector and the repository hold is sized by
// the demand, not by every pair the session has seen:
//   - the store's series are the demanded pairs plus those that left the
//     demand within a ring's worth of rounds before the last checkpoint;
//   - the delivery windows are the demanded slots plus the pairs
//     delivered within one span before the last install;
//   - the last checkpoint is at most 1.2× the full rings of the demand;
//   - a recovery of the journal, and a cold resume from it, rebuild the
//     live store series for series.
func TestMemorySizedByDemand(t *testing.T) {
	const (
		nodes, universe, width = 40, 64, 8
		every, rounds          = 200, 20000
	)
	attrs := make([]AttrID, universe)
	for i := range attrs {
		attrs[i] = AttrID(i + 1)
	}
	spec := SystemSpec{CentralCapacity: 1e9, Cost: CostModel{PerMessage: 10, PerValue: 1}}
	for i := 0; i < nodes; i++ {
		spec.Nodes = append(spec.Nodes, Node{ID: NodeID(i + 1), Capacity: 1e6, Attrs: attrs})
	}
	sys, err := NewSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	// tasks is the k-th task set: width attributes from the k-th on.
	tasks := func(k int) []Task {
		set := make([]AttrID, width)
		for i := range set {
			set[i] = attrs[(k+i)%universe]
		}
		return []Task{{Name: "slide", Attrs: set, Nodes: sys.NodeIDs()}}
	}
	demanded := func(k int, p Pair) bool { return (int(p.Attr)-1-k%universe+universe)%universe < width }

	dir := t.TempDir()
	p := NewPlanner(sys)
	for _, tk := range tasks(0) {
		p.MustAddTask(tk)
	}
	// delivered is each pair's newest delivered round; departed is the
	// install round at which a pair last left the demand.
	delivered := make(map[Pair]int)
	departed := make(map[Pair]int)
	mon, err := p.StartMonitor(MonitorConfig{
		Seed: 1, Journal: dir,
		OnValue: func(p Pair, round int, _ float64) { delivered[p] = max(delivered[p], round) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()

	k, lastInstall, lastCkpt := 0, 0, 0
	for r := 0; r < rounds; r++ {
		if r > 0 && r%every == 0 {
			for _, id := range sys.NodeIDs() {
				departed[Pair{Node: id, Attr: attrs[k%universe]}] = r
			}
			k++
			if _, err := mon.SetTasks(tasks(k)); err != nil {
				t.Fatal(err)
			}
			lastInstall = r
		}
		seg := mon.s.log.writer.Segment()
		if err := mon.Run(1); err != nil {
			t.Fatal(err)
		}
		if mon.s.log.writer.Segment() != seg {
			lastCkpt = r
		}
	}
	if lastCkpt < rounds-2*every {
		t.Fatalf("last checkpoint at round %d of %d: too long ago to bound the store by", lastCkpt, rounds)
	}

	repo := mon.Store()
	demand := len(sys.NodeIDs()) * width
	keep := 0
	for p, at := range departed {
		if !demanded(k, p) && at >= lastCkpt-repo.Capacity() {
			keep++
		}
	}
	series := len(repo.Pairs())
	if series > demand+keep {
		t.Errorf("store holds %d series: %d demanded, %d departed since round %d", series, demand, keep, lastCkpt-repo.Capacity())
	}

	held, span := mon.s.machine.DedupWindows()
	recent := 0
	for p, r := range delivered {
		if !demanded(k, p) && r > lastInstall-span {
			recent++
		}
	}
	if held > demand+recent {
		t.Errorf("%d delivery windows held: %d demanded slots, %d pairs delivered within %d rounds of round %d",
			held, demand, recent, span, lastInstall)
	}

	ckpt := lastCheckpointSize(t, dir)
	rings := demand * (12 + repo.Capacity()*12)
	if float64(ckpt) > 1.2*float64(rings) {
		t.Errorf("last checkpoint %d B, over 1.2× the demand's %d B of full rings", ckpt, rings)
	}
	t.Logf("%d series, %d windows of %d B (%d rounds), last checkpoint %d B, over %d pairs delivered",
		series, held, span/8, span, ckpt, len(delivered))

	live := seriesOf(repo)
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := seriesOf(rec.State.Store); !reflect.DeepEqual(got, live) {
		t.Errorf("a recovery of the journal holds %d series, the live store %d", len(got), len(live))
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	mon2, _, err := p.ResumeMonitor(dir, MonitorConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon2.Close() }()
	if got := seriesOf(mon2.Store()); !reflect.DeepEqual(got, live) {
		t.Errorf("a cold resume holds %d series, the live store %d", len(got), len(live))
	}
}

// pairSeries is one series of a store walk.
type pairSeries struct {
	pair    Pair
	samples []Sample
}

// seriesOf copies a store's EachSeries walk.
func seriesOf(s *Store) []pairSeries {
	var out []pairSeries
	s.EachSeries(func(p Pair, samples []Sample) {
		out = append(out, pairSeries{p, slices.Clone(samples)})
	})
	return out
}

// lastCheckpointSize is the byte size of the newest checkpoint in dir.
func lastCheckpointSize(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	newest, size := -1, int64(0)
	for _, name := range names {
		seg, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(name), "ckpt-"))
		if err != nil || seg < newest {
			continue
		}
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		newest, size = seg, fi.Size()
	}
	if newest < 0 {
		t.Fatal("no checkpoint")
	}
	return size
}
