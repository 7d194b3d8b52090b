package journal

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"remo/internal/model"
	"remo/internal/predict"
	"remo/internal/store"
	"remo/internal/task"
)

// testState builds a representative session state: demand, a pruned
// base demand, a dead set, stored samples and trigger cooldowns.
func testState() State {
	d := task.NewDemand()
	d.Set(1, 1, 1)
	d.Set(2, 1, 2)
	d.Set(2, 3, 0.5)
	base := d.Clone()
	base.Set(4, 1, 1)

	st := store.New(8)
	st.Observe(model.Pair{Node: 1, Attr: 1}, 3, 1.5)
	st.Observe(model.Pair{Node: 1, Attr: 1}, 4, 2.5)
	st.Observe(model.Pair{Node: 2, Attr: 3}, 4, -7)

	return State{
		Epoch:       3,
		Fingerprint: 0xDEADBEEFCAFE,
		Round:       4,
		Failures:    2,
		Recoveries:  1,
		Repairs:     3,
		Demand:      d,
		BaseDemand:  base,
		Dead:        map[model.NodeID]int{4: 2},
		Store:       st,
		Cooldowns: map[string]map[model.Pair]int{
			"hot": {{Node: 1, Attr: 1}: 4},
		},
	}
}

// sameDemand compares two demands pair by pair, weights included.
func sameDemand(t *testing.T, what string, got, want *task.Demand) {
	t.Helper()
	gp, wp := got.Pairs(), want.Pairs()
	if !reflect.DeepEqual(gp, wp) {
		t.Fatalf("%s pairs = %v, want %v", what, gp, wp)
	}
	for _, p := range wp {
		if g, w := got.Weight(p.Node, p.Attr), want.Weight(p.Node, p.Attr); g != w {
			t.Fatalf("%s weight(%v) = %v, want %v", what, p, g, w)
		}
	}
}

// wrappedState is testState with a capacity-4 store whose rings have
// wrapped: one series pushed in order past capacity twice over, one
// with out-of-order inserts across the wrap, and one full series given
// a sample older than every retained one (evicted on arrival) and an
// equal-round sample — plus a shard assignment and a model snapshot, so
// every checkpoint section is populated.
func wrappedState() State {
	s := testState()
	st := store.New(4)
	a, b, c := model.Pair{Node: 1, Attr: 1}, model.Pair{Node: 2, Attr: 3}, model.Pair{Node: 3, Attr: 2}
	for r := 0; r < 10; r++ {
		st.Observe(a, r, float64(r)*1.25)
	}
	for _, r := range []int{10, 12, 11, 13, 15, 14} {
		st.Observe(b, r, float64(-r))
	}
	for r := 20; r < 24; r++ {
		st.Observe(c, r, float64(r)/3)
	}
	st.Observe(c, 5, 99)
	st.Observe(c, 22, 22.5)
	s.Store = st
	s.Assignment = map[string]int{"a1": 0, "a2": 2}
	s.Models = map[model.Pair]predict.Snapshot{
		{Node: 4, Attr: 2}: {Kind: predict.Holt, Level: 9.75, Trend: 0.125, Seen: 8},
	}
	return s
}

// series is one pair's retained samples as Store.EachSeries walks them.
type series struct {
	Pair    model.Pair
	Samples []store.Sample
}

// storeSeries copies every retained series of st, in walk order.
func storeSeries(st *store.Store) []series {
	var out []series
	st.EachSeries(func(p model.Pair, samples []store.Sample) {
		out = append(out, series{Pair: p, Samples: append([]store.Sample(nil), samples...)})
	})
	return out
}

func TestCheckpointRoundTrip(t *testing.T) {
	for name, want := range map[string]State{"plain": testState(), "wrapped": wrappedState()} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Create(dir, Options{}, want)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := rec.State
			if got.Epoch != want.Epoch || got.Fingerprint != want.Fingerprint ||
				got.Round != want.Round || got.Failures != want.Failures ||
				got.Recoveries != want.Recoveries || got.Repairs != want.Repairs {
				t.Fatalf("scalars = %+v, want %+v", got, want)
			}
			sameDemand(t, "demand", got.Demand, want.Demand)
			sameDemand(t, "base demand", got.BaseDemand, want.BaseDemand)
			if !reflect.DeepEqual(got.Dead, want.Dead) {
				t.Fatalf("dead = %v, want %v", got.Dead, want.Dead)
			}
			if g, w := storeSeries(got.Store), storeSeries(want.Store); !reflect.DeepEqual(g, w) {
				t.Fatalf("store = %v, want %v", g, w)
			}
			if got.Store.Capacity() != want.Store.Capacity() {
				t.Fatalf("capacity = %d, want %d", got.Store.Capacity(), want.Store.Capacity())
			}
			if !reflect.DeepEqual(got.Cooldowns, want.Cooldowns) {
				t.Fatalf("cooldowns = %v, want %v", got.Cooldowns, want.Cooldowns)
			}
			if !reflect.DeepEqual(got.Assignment, want.Assignment) || !reflect.DeepEqual(got.Models, want.Models) {
				t.Fatalf("assignment/models = %v/%v, want %v/%v",
					got.Assignment, got.Models, want.Assignment, want.Models)
			}
			if rec.Torn || rec.Replayed != 0 {
				t.Fatalf("clean journal recovered torn=%v replayed=%d", rec.Torn, rec.Replayed)
			}
		})
	}
}

// TestCheckpointBytesPinned pins the checkpoint file's bytes to hashes
// of the format as first written, so an encoder rewrite is proven
// byte-identical — wrapped rings and out-of-order inserts included —
// not just round-trip compatible.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		state State
		size  int
		hash  string
	}{
		{"plain", testState(), 276, "3b3a71d5e66e2bcd48b2d82f1472185492d665c79d9a1dabf59eb0ada275ee8f"},
		{"wrapped", wrappedState(), 453, "650a5d9d33d41266849abd3a739bea91b0924630977cc645ce51ed8e340a7f31"},
	} {
		// Segment 0 is encoded into a fresh buffer; segment 1 into the
		// writer's reused one, after a WAL record has been framed in it.
		dir := t.TempDir()
		w, err := Create(dir, Options{}, tc.state)
		if err != nil {
			t.Fatal(err)
		}
		recs := []SampleRec{{Pair: model.Pair{Node: 9, Attr: 9}, Round: 30, Value: 1}}
		if _, err := w.AppendSamples(30, recs); err != nil {
			t.Fatal(err)
		}
		if err := w.Checkpoint(tc.state); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for seg := 0; seg <= 1; seg++ {
			b, err := os.ReadFile(ckptName(dir, seg))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != tc.size || got != tc.hash {
				t.Fatalf("%s ckpt-%d: %d bytes, sha256 %s; want %d bytes, %s",
					tc.name, seg, len(b), got, tc.size, tc.hash)
			}
		}
	}
}

func TestWALReplay(t *testing.T) {
	dir := t.TempDir()
	initial := testState()
	w, err := Create(dir, Options{}, initial)
	if err != nil {
		t.Fatal(err)
	}

	newDemand := task.NewDemand()
	newDemand.Set(7, 2, 1)
	if err := w.AppendEpoch(9, 0xF00D, newDemand); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendVerdict(7, 6, false); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendVerdict(4, 8, true); err != nil { // node 4 recovers
		t.Fatal(err)
	}
	if err := w.AppendRepair(8); err != nil {
		t.Fatal(err)
	}
	newSets := []model.AttrSet{model.NewAttrSet(2)}
	if err := w.AppendTasks(newDemand, newSets, 0xF00D, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendSamples(9, []SampleRec{
		{Pair: model.Pair{Node: 7, Attr: 2}, Round: 9, Value: 42},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := rec.State
	if st.Epoch != 9 || st.Fingerprint != 0xF00D {
		t.Fatalf("epoch/fingerprint = %d/%#x, want 9/0xF00D", st.Epoch, st.Fingerprint)
	}
	sameDemand(t, "installed demand", st.Demand, newDemand)
	sameDemand(t, "base demand", st.BaseDemand, newDemand)
	if st.Failures != initial.Failures+1 || st.Recoveries != initial.Recoveries+1 {
		t.Fatalf("failures/recoveries = %d/%d, want %d/%d",
			st.Failures, st.Recoveries, initial.Failures+1, initial.Recoveries+1)
	}
	if st.Repairs != initial.Repairs+1 {
		t.Fatalf("repairs = %d, want %d", st.Repairs, initial.Repairs+1)
	}
	if _, dead := st.Dead[4]; dead {
		t.Fatal("recovered node 4 still in dead set")
	}
	if at, dead := st.Dead[7]; !dead || at != 6 {
		t.Fatalf("dead[7] = %d,%v, want 6,true", at, dead)
	}
	if s, ok := st.Store.Latest(model.Pair{Node: 7, Attr: 2}); !ok || s.Value != 42 || s.Round != 9 {
		t.Fatalf("replayed sample = %+v,%v", s, ok)
	}
	if len(st.Partition) != 1 || !st.Partition[0].Equal(newSets[0]) {
		t.Fatalf("replayed partition = %v, want %v", st.Partition, newSets)
	}
	if rec.LastRound != 9 || st.Round != 9 {
		t.Fatalf("last round = %d/%d, want 9", rec.LastRound, st.Round)
	}
	if rec.Replayed != 6 || rec.Torn {
		t.Fatalf("replayed=%d torn=%v, want 6,false", rec.Replayed, rec.Torn)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{}, testState())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendSamples(5, []SampleRec{
		{Pair: model.Pair{Node: 1, Attr: 1}, Round: 5, Value: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendSamples(6, []SampleRec{
		{Pair: model.Pair{Node: 1, Attr: 1}, Round: 6, Value: 2},
	}); err != nil {
		t.Fatal(err)
	}
	seg := w.Segment()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop bytes off the WAL tail, simulating a
	// crash mid-append.
	wal := walName(dir, seg)
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatal("torn tail not reported")
	}
	if rec.Replayed != 1 || rec.LastRound != 5 {
		t.Fatalf("replayed=%d last=%d, want 1,5 (intact prefix only)", rec.Replayed, rec.LastRound)
	}
	// The torn round-6 record must not have half-applied.
	if s, ok := rec.State.Store.Latest(model.Pair{Node: 1, Attr: 1}); !ok || s.Round != 5 {
		t.Fatalf("latest after torn tail = %+v,%v, want round 5", s, ok)
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{}, testState())
	if err != nil {
		t.Fatal(err)
	}
	older := w.Segment()
	newer := testState()
	newer.Epoch = 20
	if err := w.Checkpoint(newer); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the newest checkpoint: its CRC no longer
	// matches, so recovery must fall back to the previous segment.
	name := ckptName(dir, w.Segment())
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(ckptMagic)+recLenSize+10] ^= 0xFF
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Segment != older {
		t.Fatalf("recovered segment %d, want fallback to %d", rec.Segment, older)
	}
	if rec.State.Epoch != 3 {
		t.Fatalf("fallback epoch = %d, want 3", rec.State.Epoch)
	}
}

func TestCreateSupersedesExistingJournal(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{}, testState())
	if err != nil {
		t.Fatal(err)
	}
	firstSeg := w.Segment()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A second Create in the same directory (a resumed session) must
	// continue segment numbering so its checkpoint wins recovery.
	fresh := testState()
	fresh.Epoch = 99
	w2, err := Create(dir, Options{}, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Segment() <= firstSeg {
		t.Fatalf("second journal at segment %d, want > %d", w2.Segment(), firstSeg)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State.Epoch != 99 {
		t.Fatalf("recovered epoch %d, want the superseding journal's 99", rec.State.Epoch)
	}
}

func TestRotationPrunesOldSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{KeepSegments: 1, CheckpointEvery: 1}, testState())
	if err != nil {
		t.Fatal(err)
	}
	for round := 5; round < 15; round++ {
		due, err := w.AppendSamples(round, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !due {
			t.Fatalf("round %d: checkpoint not due at cadence 1", round)
		}
		if err := w.Checkpoint(testState()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("%d segments retained (%v), want <= live + 1 kept", len(segs), segs)
	}
	// Pruned segments are gone from disk, WALs included.
	entries, _ := os.ReadDir(dir)
	if len(entries) > 4 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("%d files retained: %v", len(entries), names)
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := Recover(dir); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("err = %v, want ErrNoJournal", err)
	}
	if _, err := Recover(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestAssignmentCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testState()
	want.Assignment = map[string]int{"a1": 0, "a2": 3, "a9": 1}
	w, err := Create(dir, Options{}, want)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.State.Assignment, want.Assignment) {
		t.Fatalf("assignment = %v, want %v", rec.State.Assignment, want.Assignment)
	}
}

func TestAssignmentAbsentStaysNil(t *testing.T) {
	// A checkpoint without an assignment encodes exactly the pre-sharding
	// layout; recovery must read it and leave Assignment nil.
	dir := t.TempDir()
	w, err := Create(dir, Options{}, testState())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State.Assignment != nil {
		t.Fatalf("assignment = %v, want nil", rec.State.Assignment)
	}
}

func TestAssignmentWALReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{}, testState())
	if err != nil {
		t.Fatal(err)
	}
	// The last logged assignment wins wholesale: each record is the full
	// map, not a delta.
	if err := w.AppendAssignment(map[string]int{"a1": 0, "a2": 1}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a1": 2, "a2": 1, "a3": 0}
	if err := w.AppendAssignment(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.State.Assignment, want) {
		t.Fatalf("assignment = %v, want %v", rec.State.Assignment, want)
	}
	if rec.Replayed != 2 || rec.Torn {
		t.Fatalf("replayed=%d torn=%v, want 2,false", rec.Replayed, rec.Torn)
	}
}

func TestModelsCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testState()
	want.Models = map[model.Pair]predict.Snapshot{
		{Node: 1, Attr: 1}: {Kind: predict.Holt, Level: 42.5, Trend: -0.25, Seen: 17},
		{Node: 2, Attr: 3}: {Kind: predict.EWMA, Level: 7, Seen: 3},
	}
	w, err := Create(dir, Options{}, want)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.State.Models, want.Models) {
		t.Fatalf("models = %v, want %v", rec.State.Models, want.Models)
	}
	if rec.State.Assignment != nil {
		t.Fatalf("assignment = %v, want nil (forced-empty section decodes to nil)",
			rec.State.Assignment)
	}
}

func TestModelsWithAssignmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testState()
	want.Assignment = map[string]int{"a1": 0, "a2": 2}
	want.Models = map[model.Pair]predict.Snapshot{
		{Node: 4, Attr: 2}: {Kind: predict.Holt, Level: 9.75, Trend: 0.125, Seen: 8},
	}
	w, err := Create(dir, Options{}, want)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.State.Assignment, want.Assignment) {
		t.Fatalf("assignment = %v, want %v", rec.State.Assignment, want.Assignment)
	}
	if !reflect.DeepEqual(rec.State.Models, want.Models) {
		t.Fatalf("models = %v, want %v", rec.State.Models, want.Models)
	}
}

func TestModelsAbsentStaysNil(t *testing.T) {
	// A checkpoint without models encodes exactly the pre-suppression
	// layout; recovery must read it and leave Models nil.
	dir := t.TempDir()
	w, err := Create(dir, Options{}, testState())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State.Models != nil {
		t.Fatalf("models = %v, want nil", rec.State.Models)
	}
}

// fileSize is the byte size of path, or 0 when it does not exist.
func fileSize(t *testing.T, path string) int {
	t.Helper()
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return int(fi.Size())
}

// TestSizeRuleRotation feeds a writer with no round cadence fixed-size
// rounds into a store that outgrows segmentBytes, and checks the size
// rule by counts: a checkpoint is due exactly when the live WAL reaches
// max(segmentBytes, its checkpoint's size); checkpoints never cost more
// bytes than twice the WAL plus the live checkpoint, written or kept on
// disk; and a recovery after any append (what a kill -9 there leaves)
// returns every appended round and the writer's store.
func TestSizeRuleRotation(t *testing.T) {
	const (
		pairs    = 1000 // 20 B a sample: one round's record is ~20 KB
		capacity = 128  // a full store checkpoints ~1.5 MB > segmentBytes
		rounds   = 320
		every    = 16 // rounds between recoveries
	)
	dir := t.TempDir()
	st := store.New(capacity)
	state := func(round int) State {
		return State{Round: round, Demand: task.NewDemand(), BaseDemand: task.NewDemand(), Store: st}
	}
	w, err := Create(dir, Options{CheckpointEvery: -1}, state(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()

	recs := make([]SampleRec, pairs)
	written := fileSize(t, ckptName(dir, w.Segment())) // checkpoint bytes written
	walDone := 0                                       // bytes of sealed WALs
	var rotations, overFloor int
	for r := 0; r < rounds; r++ {
		for i := range recs {
			recs[i] = SampleRec{Pair: model.Pair{Node: model.NodeID(i), Attr: 1}, Round: r, Value: float64(r*pairs + i)}
			st.Observe(recs[i].Pair, r, recs[i].Value)
		}
		seg := w.Segment()
		due, err := w.AppendSamples(r, recs)
		if err != nil {
			t.Fatal(err)
		}
		wal, ckpt := fileSize(t, walName(dir, seg)), fileSize(t, ckptName(dir, seg))
		threshold := max(segmentBytes, ckpt)
		if want := wal >= threshold; due != want {
			t.Fatalf("round %d: due=%v with WAL %d B against max(%d, checkpoint %d B)",
				r, due, wal, segmentBytes, ckpt)
		}
		if due {
			rotations++
			if ckpt > segmentBytes {
				overFloor++
			}
			if err := w.Checkpoint(state(r)); err != nil {
				t.Fatal(err)
			}
			walDone += wal
			written += fileSize(t, ckptName(dir, w.Segment()))
		}

		liveCkpt := fileSize(t, ckptName(dir, w.Segment()))
		walTotal := walDone + fileSize(t, walName(dir, w.Segment()))
		if written+walTotal > 2*walTotal+liveCkpt {
			t.Fatalf("round %d: %d checkpoint bytes written beside %d WAL bytes (live checkpoint %d)",
				r, written, walTotal, liveCkpt)
		}
		var onDisk, walOnDisk int
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			n := fileSize(t, filepath.Join(dir, e.Name()))
			onDisk += n
			if strings.HasPrefix(e.Name(), "wal-") {
				walOnDisk += n
			}
		}
		if onDisk > 2*walOnDisk+liveCkpt {
			t.Fatalf("round %d: %d B on disk against %d WAL bytes (live checkpoint %d)", r, onDisk, walOnDisk, liveCkpt)
		}

		if r%every == every-1 || due {
			rec, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.LastRound != r || rec.Torn {
				t.Fatalf("round %d: recovered last round %d (torn %v)", r, rec.LastRound, rec.Torn)
			}
			if g, w := storeSeries(rec.State.Store), storeSeries(st); !reflect.DeepEqual(g, w) {
				t.Fatalf("round %d: recovered store differs from the writer's (%d vs %d samples)",
					r, rec.State.Store.Len(), st.Len())
			}
		}
	}
	t.Logf("%d rotations, %d past the floor", rotations, overFloor)
	if rotations < 3 || overFloor == 0 {
		t.Fatalf("%d size-triggered rotations, %d past the floor; want >= 3 and >= 1", rotations, overFloor)
	}
}
