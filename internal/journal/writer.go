package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"remo/internal/model"
	"remo/internal/task"
)

// Options tunes the journal writer. The zero value selects the
// defaults.
type Options struct {
	// CheckpointEvery, when positive, also makes a checkpoint due every
	// that many AppendSamples calls (rounds). Zero or negative adds no
	// round cadence: the size rule below still applies.
	CheckpointEvery int
	// KeepSegments is how many sealed segments to retain besides the
	// live one (default 2).
	KeepSegments int
}

// segmentBytes is the floor of the size rule: a checkpoint is due once
// the live WAL holds at least max(segmentBytes, the size of the
// checkpoint that opened its segment). Under this rule alone (no round
// cadence, no explicit Checkpoint) every sealed segment's WAL is at
// least as large as its checkpoint, so checkpoints never cost more
// bytes than the WAL they make prunable; and recovery replays at most
// that much WAL, plus one round's records, on top of one checkpoint.
const segmentBytes = 1 << 20

func (o Options) withDefaults() Options {
	if o.KeepSegments <= 0 {
		o.KeepSegments = 2
	}
	return o
}

// Writer appends durable session state to a journal directory. It is
// not safe for concurrent use; the monitor calls it from its
// coordinator goroutine only.
type Writer struct {
	dir  string
	opts Options

	seg     int
	wal     *os.File
	walSize int
	// ckptSize is the byte size of the checkpoint that opened the live
	// segment.
	ckptSize int
	// rounds counts AppendSamples calls since the last checkpoint.
	rounds int
	// buf is the reused encode buffer: every WAL record and checkpoint
	// is encoded and framed in it in place.
	buf []byte
}

func ckptName(dir string, seg int) string { return filepath.Join(dir, fmt.Sprintf("ckpt-%d", seg)) }
func walName(dir string, seg int) string  { return filepath.Join(dir, fmt.Sprintf("wal-%d", seg)) }

// Create opens a journal in dir (created if missing) and seals the
// initial state as a fresh checkpoint. An existing journal in dir is
// superseded, not clobbered: numbering continues after its newest
// segment (so the new checkpoint is always the one recovery finds) and
// the old segments are pruned as rotation proceeds. A directory Create
// makes is synced into its parent, so a host crash keeps it.
func Create(dir string, opts Options, initial State) (*Writer, error) {
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if os.IsNotExist(statErr) {
		if err := syncDir(filepath.Dir(filepath.Clean(dir))); err != nil {
			return nil, fmt.Errorf("journal: sync dir: %w", err)
		}
	}
	start := -1
	if segs, err := listSegments(dir); err == nil && len(segs) > 0 {
		start = segs[len(segs)-1]
	}
	w := &Writer{dir: dir, opts: opts.withDefaults(), seg: start}
	if err := w.rotate(initial); err != nil {
		return nil, err
	}
	return w, nil
}

// writeCheckpoint writes ckpt-seg atomically (temp file + fsync +
// rename) and records its size. The state is encoded straight into the
// writer's reused buffer and the temp file is written, synced and
// closed through one handle; any failure is returned before the rename,
// so a checkpoint that may not be durable never replaces the segment
// recovery would read.
func (w *Writer) writeCheckpoint(seg int, s State) error {
	w.buf = append(w.buf[:0], ckptMagic...)
	w.buf = appendRecord(w.buf, recCheckpoint, func(dst []byte) []byte { return appendCheckpoint(dst, s) })
	tmp := ckptName(w.dir, seg) + ".tmp"
	if err := writeFile(tmp, w.buf); err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, ckptName(w.dir, seg)); err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	w.ckptSize = len(w.buf)
	return nil
}

// writeFile creates (or truncates) path, writes data, syncs it and
// closes it, returning the first error.
func writeFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// rotate seals a new segment: checkpoint, fresh WAL, pruned history.
// The directory is synced once both new entries exist, before any old
// segment is pruned, so a host crash keeps the renamed checkpoint and
// the WAL whose appends are fsynced from now on.
func (w *Writer) rotate(s State) error {
	next := w.seg + 1
	if err := w.writeCheckpoint(next, s); err != nil {
		return err
	}
	wal, err := os.Create(walName(w.dir, next))
	if err != nil {
		return fmt.Errorf("journal: wal: %w", err)
	}
	if _, err := wal.Write(walMagic); err != nil {
		_ = wal.Close()
		return fmt.Errorf("journal: wal: %w", err)
	}
	if w.wal != nil {
		_ = w.wal.Close()
	}
	w.wal = wal
	w.walSize = len(walMagic)
	w.seg = next
	w.rounds = 0
	if err := syncDir(w.dir); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}

	for old := next - w.opts.KeepSegments - 1; old >= 0; old-- {
		e1 := os.Remove(ckptName(w.dir, old))
		e2 := os.Remove(walName(w.dir, old))
		if e1 != nil && e2 != nil {
			break // history already pruned below this point
		}
	}
	return nil
}

// append frames and writes one WAL record, its payload encoded in
// place into the writer's reused buffer.
func (w *Writer) append(kind uint8, encode func([]byte) []byte) error {
	if w.wal == nil {
		return fmt.Errorf("journal: writer closed")
	}
	w.buf = appendRecord(w.buf[:0], kind, encode)
	n, err := w.wal.Write(w.buf)
	w.walSize += n
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := w.wal.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// AppendEpoch logs a plan install: the new epoch, the installed
// forest's fingerprint, and the installed demand.
func (w *Writer) AppendEpoch(epoch uint32, fingerprint uint64, installed *task.Demand) error {
	return w.append(recEpoch, func(dst []byte) []byte { return appendEpoch(dst, epoch, fingerprint, installed) })
}

// AppendTasks logs a task mutation: the new base (user-submitted)
// demand, the partition behind the replanned topology, the installed
// forest's fingerprint, and the swap's tree-level diff counts. The
// partition is what lets a cold resume rebuild the exact pre-crash
// forest; the fingerprint and diff document the swap for audits.
func (w *Writer) AppendTasks(base *task.Demand, sets []model.AttrSet, fingerprint uint64, kept, rebuilt, dropped int) error {
	return w.append(recTasks, func(dst []byte) []byte {
		return appendTasks(dst, base, sets, fingerprint, kept, rebuilt, dropped)
	})
}

// AppendVerdict logs a failure-detector verdict.
func (w *Writer) AppendVerdict(node model.NodeID, declaredAt int, recovered bool) error {
	return w.append(recVerdict, func(dst []byte) []byte { return appendVerdict(dst, node, declaredAt, recovered) })
}

// AppendAssignment logs the dispatcher's tree→shard map after a
// placement decision. The full map is logged, not a delta: placement
// decisions are rare (installs, shard deaths, recoveries) and a
// self-contained record lets recovery adopt the last one wholesale.
func (w *Writer) AppendAssignment(assign map[string]int) error {
	return w.append(recAssign, func(dst []byte) []byte { return appendAssignment(dst, assign) })
}

// AppendRepair logs one topology repair at the given round.
func (w *Writer) AppendRepair(round int) error {
	return w.append(recRepair, func(dst []byte) []byte { return binary.BigEndian.AppendUint32(dst, uint32(int32(round))) })
}

// AppendSamples logs the values the collector accepted in one round
// and reports whether a checkpoint is due: the live WAL has reached
// max(segmentBytes, the size of the segment's checkpoint), or a
// positive CheckpointEvery rounds have passed since it. The caller
// drives the checkpoint via Checkpoint.
func (w *Writer) AppendSamples(round int, recs []SampleRec) (checkpointDue bool, err error) {
	if err := w.append(recSamples, func(dst []byte) []byte { return appendSamples(dst, round, recs) }); err != nil {
		return false, err
	}
	w.rounds++
	due := (w.opts.CheckpointEvery > 0 && w.rounds >= w.opts.CheckpointEvery) ||
		w.walSize >= max(segmentBytes, w.ckptSize)
	return due, nil
}

// Checkpoint seals the current state into a fresh segment and prunes
// old ones.
func (w *Writer) Checkpoint(s State) error {
	if w.wal == nil {
		return fmt.Errorf("journal: writer closed")
	}
	return w.rotate(s)
}

// Segment returns the live segment number.
func (w *Writer) Segment() int { return w.seg }

// Close syncs and closes the live WAL. The journal stays recoverable.
func (w *Writer) Close() error {
	if w.wal == nil {
		return nil
	}
	err := w.wal.Sync()
	if cerr := w.wal.Close(); err == nil {
		err = cerr
	}
	w.wal = nil
	return err
}
