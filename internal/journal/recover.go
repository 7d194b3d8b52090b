package journal

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"remo/internal/model"
)

// Recovered is the result of reading a journal back.
type Recovered struct {
	// State is the session state as of the last intact record.
	State State
	// LastRound is the newest round with journaled samples (-1 when
	// none were logged since the checkpoint and the checkpoint itself
	// predates round 0).
	LastRound int
	// Segment is the checkpoint segment recovery started from.
	Segment int
	// Torn reports that a torn or corrupt WAL tail was truncated — the
	// signature of a crash mid-append.
	Torn bool
	// Replayed counts the WAL records applied on top of the checkpoint.
	Replayed int
}

// Recover loads the newest intact checkpoint in dir and replays its WAL
// on top. A corrupt newest checkpoint falls back to the previous
// segment; a corrupt WAL record truncates replay at that point (torn
// tail). Returns ErrNoJournal when dir holds no readable checkpoint.
func Recover(dir string) (*Recovered, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoJournal, dir)
	}
	// Newest first; fall back on corrupt checkpoints.
	var lastErr error
	for i := len(segs) - 1; i >= 0; i-- {
		rec, err := recoverSegment(dir, segs[i])
		if err == nil {
			return rec, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Exists reports whether dir already holds a journal: at least one
// checkpoint segment, the thing Create would supersede and Recover
// would read. A missing or unreadable directory holds none.
func Exists(dir string) bool {
	segs, err := listSegments(dir)
	return err == nil && len(segs) > 0
}

// listSegments returns the segment numbers with a ckpt file, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(name, "ckpt-"))
		if err != nil {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// recoverSegment loads one checkpoint and replays its WAL.
func recoverSegment(dir string, seg int) (*Recovered, error) {
	raw, err := os.ReadFile(ckptName(dir, seg))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if !bytes.HasPrefix(raw, ckptMagic) {
		return nil, fmt.Errorf("%w: bad checkpoint magic (segment %d)", ErrCorrupt, seg)
	}
	kind, payload, _, ok := splitRecord(raw[len(ckptMagic):])
	if !ok || kind != recCheckpoint {
		return nil, fmt.Errorf("%w: unreadable checkpoint (segment %d)", ErrCorrupt, seg)
	}
	state, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("%w (segment %d)", err, seg)
	}
	rec := &Recovered{State: state, LastRound: state.Round, Segment: seg}

	wal, err := os.ReadFile(walName(dir, seg))
	if err != nil {
		if os.IsNotExist(err) {
			// Crash between checkpoint rename and WAL create: the
			// checkpoint alone is the recovered state.
			rec.Torn = true
			return rec, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	if !bytes.HasPrefix(wal, walMagic) {
		rec.Torn = len(wal) > 0
		return rec, nil
	}
	p := wal[len(walMagic):]
	for len(p) > 0 {
		kind, payload, rest, ok := splitRecord(p)
		if !ok {
			rec.Torn = true
			break
		}
		p = rest
		if err := rec.apply(kind, payload); err != nil {
			rec.Torn = true
			break
		}
		rec.Replayed++
	}
	return rec, nil
}

// apply replays one WAL record onto the recovered state.
func (rec *Recovered) apply(kind uint8, payload []byte) error {
	r := &reader{p: payload}
	s := &rec.State
	switch kind {
	case recEpoch:
		epoch := r.u32()
		fp := r.u64()
		d := r.demand()
		if r.err != nil {
			return r.err
		}
		s.Epoch, s.Fingerprint, s.Demand = epoch, fp, d
	case recTasks:
		d := r.demand()
		sets := r.partition()
		r.u64() // fingerprint: recEpoch is authoritative for State.Fingerprint
		r.u32() // kept
		r.u32() // rebuilt
		r.u32() // dropped
		if r.err != nil {
			return r.err
		}
		s.BaseDemand = d
		s.Partition = sets
	case recVerdict:
		node := model.NodeID(r.i32())
		declaredAt := r.i32()
		recovered := r.u8() == 1
		if r.err != nil {
			return r.err
		}
		if recovered {
			delete(s.Dead, node)
			s.Recoveries++
		} else {
			s.Dead[node] = declaredAt
			s.Failures++
		}
	case recAssign:
		m := r.assignment()
		if r.err != nil {
			return r.err
		}
		s.Assignment = m
	case recRepair:
		if _ = r.i32(); r.err != nil {
			return r.err
		}
		s.Repairs++
	case recSamples:
		round := r.i32()
		n := int(r.u32())
		if r.err != nil {
			return r.err
		}
		type obs struct {
			p model.Pair
			r int
			v float64
		}
		batch := make([]obs, 0, n)
		for i := 0; i < n; i++ {
			node := model.NodeID(r.i32())
			attr := model.AttrID(r.i32())
			sr := r.i32()
			v := r.f64()
			if r.err != nil {
				return r.err
			}
			batch = append(batch, obs{p: model.Pair{Node: node, Attr: attr}, r: sr, v: v})
		}
		// Only a fully intact record mutates the store: a torn tail must
		// not half-apply a round.
		for _, o := range batch {
			s.Store.Observe(o.p, o.r, o.v)
		}
		if round > rec.LastRound {
			rec.LastRound = round
		}
		if round > s.Round {
			s.Round = round
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	return nil
}
