// Package journal makes a monitoring session durable: it persists the
// collector-side state a crashed session needs to resume — the
// installed plan's epoch and fingerprint, the monitoring demand, the
// failure detector's dead set, repair history, trigger re-arm state and
// the repository's recent samples — as periodic checkpoints plus a
// write-ahead log of per-round deltas.
//
// The on-disk discipline mirrors the wire codec's: big-endian,
// length-prefixed records with the layout constants below as the single
// source of truth. Every record is CRC-guarded, so recovery can detect
// a torn tail (a crash mid-append) and truncate it instead of reading
// garbage. Files live in one directory as numbered segments:
//
//	ckpt-N  full state snapshot opening segment N
//	wal-N   the deltas appended since ckpt-N
//
// Recovery loads the newest intact checkpoint and replays its WAL on
// top; older segments are pruned on rotation, bounding disk use.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"remo/internal/model"
	"remo/internal/predict"
	"remo/internal/store"
	"remo/internal/task"
)

// File headers: 8 magic bytes identifying role and format version.
var (
	ckptMagic = []byte("REMOCKP1")
	walMagic  = []byte("REMOWAL1")
)

// Record framing layout — the single source of truth, like the wire
// codec's header constants. A record is:
//
//	length(uint32) kind(uint8) payload crc32(uint32)
//
// where length covers kind+payload and the CRC is computed over
// kind+payload (IEEE polynomial).
const (
	recLenSize  = 4
	recKindSize = 1
	recCRCSize  = 4
	// maxRecordSize bounds a single record; anything larger is treated
	// as corruption.
	maxRecordSize = 1 << 26
)

// Record kinds.
const (
	// recCheckpoint is a full State snapshot (only record in ckpt files).
	recCheckpoint = 1
	// recEpoch logs a plan install: epoch, fingerprint, installed demand.
	recEpoch = 2
	// recTasks logs a change to the base (user-submitted) demand, the
	// partition behind the replanned topology, its forest fingerprint
	// and the swap's tree-level diff counts.
	recTasks = 3
	// recVerdict logs a failure-detector verdict (death or recovery).
	recVerdict = 4
	// recRepair logs one topology repair.
	recRepair = 5
	// recSamples logs the values the collector accepted in one round.
	recSamples = 6
	// recAssign logs the dispatcher's tree→shard assignment after a
	// placement decision (initial placement, re-dispatch, rebalance or
	// retarget), so a cold resume rebuilds the identical map.
	recAssign = 7
)

// State is the durable session state: everything a restarted collector
// needs that it cannot re-derive from configuration. A session keeps
// one journal whatever its shard count, so one State seeds every shard
// of a restarted tier.
type State struct {
	// Epoch is the last installed plan epoch.
	Epoch uint32
	// Fingerprint identifies the installed forest (plan.Forest
	// Fingerprint), letting a resumed session tell whether a replanned
	// topology matches the pre-crash one.
	Fingerprint uint64
	// Round is the last round whose samples were journaled.
	Round int
	// Failures, Recoveries and Repairs are the self-healing history
	// counters.
	Failures, Recoveries, Repairs int
	// Demand is the installed (possibly repair-pruned) demand.
	Demand *task.Demand
	// BaseDemand is the user-submitted demand before pruning.
	BaseDemand *task.Demand
	// Partition is the attribute partition behind the installed plan.
	// The planner's evaluation is deterministic in (system, demand,
	// partition), so a cold resume can rebuild the exact pre-crash
	// forest from it instead of searching anew.
	Partition []model.AttrSet
	// Dead is the failure detector's declared-dead set (node →
	// declaration round).
	Dead map[model.NodeID]int
	// Store holds the journaled samples.
	Store *store.Store
	// Cooldowns is the trigger re-arm state (checkpoint-granular).
	Cooldowns map[string]map[model.Pair]int
	// Assignment is the dispatcher's tree→shard map for sessions above
	// one shard (nil for a lone collector, whose 1-shard map is
	// implied). Encoded as an
	// optional trailing checkpoint field so pre-sharding journals stay
	// readable.
	Assignment map[string]int
	// Models holds the collector-side forecasting replica snapshots for
	// sessions running dead-band suppression (nil otherwise). Like
	// Assignment it is a trailing optional field; when present it forces
	// the assignment section to be emitted (possibly empty) so field
	// positions stay unambiguous.
	Models map[model.Pair]predict.Snapshot
}

// SampleRec is one collected value as journaled by recSamples records:
// the store's Record, so a round's batch goes to the store and the WAL
// as it is.
type SampleRec = store.Record

// Errors.
var (
	ErrNoJournal = errors.New("journal: no checkpoint found")
	ErrCorrupt   = errors.New("journal: corrupt record")
)

var crcTable = crc32.IEEETable

// appendRecord frames kind and the payload encode appends into dst,
// encoding the payload in place: the length is patched in once the
// payload is written, then the CRC is appended.
func appendRecord(dst []byte, kind uint8, encode func([]byte) []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	body := len(dst)
	dst = encode(append(dst, kind))
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-body))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[body:], crcTable))
}

// splitRecord consumes one record from p, verifying length and CRC.
// It returns the kind, payload and remaining bytes; ok is false when p
// holds no intact record (a torn or corrupt tail).
func splitRecord(p []byte) (kind uint8, payload, rest []byte, ok bool) {
	if len(p) < recLenSize {
		return 0, nil, p, false
	}
	n := int(binary.BigEndian.Uint32(p))
	if n < recKindSize || n > maxRecordSize || len(p) < recLenSize+n+recCRCSize {
		return 0, nil, p, false
	}
	body := p[recLenSize : recLenSize+n]
	want := binary.BigEndian.Uint32(p[recLenSize+n:])
	if crc32.Checksum(body, crcTable) != want {
		return 0, nil, p, false
	}
	return body[0], body[1:], p[recLenSize+n+recCRCSize:], true
}

// reader is a cursor over a record payload; the first short read or
// malformed field latches err and zero-values every later read.
type reader struct {
	p   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.p) < n {
		r.err = fmt.Errorf("%w: short payload", ErrCorrupt)
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) i32() int { return int(int32(r.u32())) }

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || n > maxRecordSize {
		if r.err == nil {
			r.err = fmt.Errorf("%w: oversized string", ErrCorrupt)
		}
		return ""
	}
	return string(r.take(n))
}

// --- field group encodings -------------------------------------------

// appendDemand encodes a demand as count + (node, attr, weight) triples
// in canonical pair order.
func appendDemand(dst []byte, d *task.Demand) []byte {
	if d == nil {
		return binary.BigEndian.AppendUint32(dst, 0)
	}
	pairs := d.Pairs()
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(pairs)))
	for _, p := range pairs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Node)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Attr)))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d.Weight(p.Node, p.Attr)))
	}
	return dst
}

func (r *reader) demand() *task.Demand {
	n := int(r.u32())
	d := task.NewDemand()
	for i := 0; i < n && r.err == nil; i++ {
		node := model.NodeID(r.i32())
		attr := model.AttrID(r.i32())
		w := r.f64()
		if r.err == nil {
			d.Set(node, attr, w)
		}
	}
	return d
}

// appendPartition encodes an attribute partition as count + per-set
// attribute lists in the partition's (stable) order.
func appendPartition(dst []byte, sets []model.AttrSet) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(sets)))
	for _, s := range sets {
		attrs := s.Attrs()
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(attrs)))
		for _, a := range attrs {
			dst = binary.BigEndian.AppendUint32(dst, uint32(int32(a)))
		}
	}
	return dst
}

func (r *reader) partition() []model.AttrSet {
	n := int(r.u32())
	if r.err != nil || n > maxRecordSize {
		if r.err == nil {
			r.err = fmt.Errorf("%w: oversized partition", ErrCorrupt)
		}
		return nil
	}
	sets := make([]model.AttrSet, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := int(r.u32())
		if r.err != nil || k > maxRecordSize {
			if r.err == nil {
				r.err = fmt.Errorf("%w: oversized attr set", ErrCorrupt)
			}
			return nil
		}
		attrs := make([]model.AttrID, 0, k)
		for j := 0; j < k && r.err == nil; j++ {
			attrs = append(attrs, model.AttrID(r.i32()))
		}
		if r.err == nil {
			sets = append(sets, model.NewAttrSet(attrs...))
		}
	}
	if r.err != nil {
		return nil
	}
	return sets
}

// appendTasks encodes a recTasks payload: the base demand, the
// partition now in force, the installed forest's fingerprint and the
// swap's kept/rebuilt/dropped tree counts.
func appendTasks(dst []byte, base *task.Demand, sets []model.AttrSet, fingerprint uint64, kept, rebuilt, dropped int) []byte {
	dst = appendDemand(dst, base)
	dst = appendPartition(dst, sets)
	dst = binary.BigEndian.AppendUint64(dst, fingerprint)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(kept)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(rebuilt)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(dropped)))
	return dst
}

// appendEpoch encodes a recEpoch payload.
func appendEpoch(dst []byte, epoch uint32, fingerprint uint64, installed *task.Demand) []byte {
	dst = binary.BigEndian.AppendUint32(dst, epoch)
	dst = binary.BigEndian.AppendUint64(dst, fingerprint)
	return appendDemand(dst, installed)
}

// appendVerdict encodes a recVerdict payload.
func appendVerdict(dst []byte, node model.NodeID, declaredAt int, recovered bool) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(node)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(declaredAt)))
	if recovered {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendSamples encodes a recSamples payload: the round plus every
// value the collector accepted in it.
func appendSamples(dst []byte, round int, recs []SampleRec) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(round)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(recs)))
	for _, s := range recs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(s.Pair.Node)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(s.Pair.Attr)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(s.Round)))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Value))
	}
	return dst
}

// appendAssignment encodes a tree→shard map as count + (key, shard)
// pairs in sorted key order.
func appendAssignment(dst []byte, assign map[string]int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(assign)))
	for _, k := range sortedAssignKeys(assign) {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(k)))
		dst = append(dst, k...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(assign[k])))
	}
	return dst
}

func (r *reader) assignment() map[string]int {
	n := int(r.u32())
	if r.err != nil || n > maxRecordSize {
		if r.err == nil {
			r.err = fmt.Errorf("%w: oversized assignment", ErrCorrupt)
		}
		return nil
	}
	m := make(map[string]int, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		s := r.i32()
		if r.err == nil {
			m[k] = s
		}
	}
	if r.err != nil {
		return nil
	}
	return m
}

// appendCheckpoint encodes a full State snapshot.
func appendCheckpoint(dst []byte, s State) []byte {
	dst = binary.BigEndian.AppendUint32(dst, s.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, s.Fingerprint)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(s.Round)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(s.Failures)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(s.Recoveries)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(s.Repairs)))
	dst = appendDemand(dst, s.Demand)
	dst = appendDemand(dst, s.BaseDemand)
	dst = appendPartition(dst, s.Partition)

	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Dead)))
	for _, n := range sortedNodes(s.Dead) {
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(n)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(s.Dead[n])))
	}

	// The series section walks the rings in place: a count placeholder,
	// patched once the walk has counted the non-empty series.
	capacity := 0
	if s.Store != nil {
		capacity = s.Store.Capacity()
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(capacity))
	countAt, nSeries := len(dst), 0
	dst = binary.BigEndian.AppendUint32(dst, 0)
	if s.Store != nil {
		s.Store.EachSeries(func(p model.Pair, samples []store.Sample) {
			nSeries++
			dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Node)))
			dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Attr)))
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(samples)))
			for _, smp := range samples {
				dst = binary.BigEndian.AppendUint32(dst, uint32(int32(smp.Round)))
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(smp.Value))
			}
		})
	}
	binary.BigEndian.PutUint32(dst[countAt:], uint32(nSeries))

	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Cooldowns)))
	for _, name := range sortedKeys(s.Cooldowns) {
		pairs := s.Cooldowns[name]
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(name)))
		dst = append(dst, name...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(pairs)))
		for _, p := range sortedPairs(pairs) {
			dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Node)))
			dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Attr)))
			dst = binary.BigEndian.AppendUint32(dst, uint32(int32(pairs[p])))
		}
	}

	// Trailing optional fields, in fixed order: the shard assignment,
	// then the forecasting-model snapshots. Readers that predate a field
	// stop before its bytes; readers that postdate it treat an exhausted
	// payload as "absent" — both directions of skew stay readable. A
	// later field forces every earlier one to be emitted (possibly
	// empty) so positions stay unambiguous.
	if len(s.Assignment) > 0 || len(s.Models) > 0 {
		dst = appendAssignment(dst, s.Assignment)
	}
	if len(s.Models) > 0 {
		dst = appendModels(dst, s.Models)
	}
	return dst
}

// appendModels encodes pair→model snapshots as count + (node, attr,
// kind, level, trend, seen) tuples in canonical pair order.
func appendModels(dst []byte, models map[model.Pair]predict.Snapshot) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(models)))
	for _, p := range sortedModelPairs(models) {
		sn := models[p]
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Node)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Attr)))
		dst = append(dst, byte(sn.Kind))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(sn.Level))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(sn.Trend))
		dst = binary.BigEndian.AppendUint32(dst, sn.Seen)
	}
	return dst
}

func (r *reader) models() map[model.Pair]predict.Snapshot {
	n := int(r.u32())
	if r.err != nil || n > maxRecordSize {
		if r.err == nil {
			r.err = fmt.Errorf("%w: oversized model section", ErrCorrupt)
		}
		return nil
	}
	m := make(map[model.Pair]predict.Snapshot, n)
	for i := 0; i < n && r.err == nil; i++ {
		node := model.NodeID(r.i32())
		attr := model.AttrID(r.i32())
		sn := predict.Snapshot{
			Kind:  predict.Kind(r.u8()),
			Level: r.f64(),
			Trend: r.f64(),
			Seen:  r.u32(),
		}
		if r.err == nil {
			m[model.Pair{Node: node, Attr: attr}] = sn
		}
	}
	if r.err != nil {
		return nil
	}
	return m
}

// decodeCheckpoint parses a recCheckpoint payload.
func decodeCheckpoint(payload []byte) (State, error) {
	r := &reader{p: payload}
	s := State{
		Epoch:       r.u32(),
		Fingerprint: r.u64(),
		Round:       r.i32(),
		Failures:    r.i32(),
		Recoveries:  r.i32(),
		Repairs:     r.i32(),
	}
	s.Demand = r.demand()
	s.BaseDemand = r.demand()
	s.Partition = r.partition()

	nDead := int(r.u32())
	s.Dead = make(map[model.NodeID]int, nDead)
	for i := 0; i < nDead && r.err == nil; i++ {
		n := model.NodeID(r.i32())
		at := r.i32()
		if r.err == nil {
			s.Dead[n] = at
		}
	}

	capacity := int(r.u32())
	nSeries := int(r.u32())
	if r.err == nil {
		s.Store = store.New(capacity)
	}
	for i := 0; i < nSeries && r.err == nil; i++ {
		node := model.NodeID(r.i32())
		attr := model.AttrID(r.i32())
		nSamp := int(r.u32())
		for j := 0; j < nSamp && r.err == nil; j++ {
			round := r.i32()
			v := r.f64()
			if r.err == nil {
				s.Store.Observe(model.Pair{Node: node, Attr: attr}, round, v)
			}
		}
	}

	nCool := int(r.u32())
	s.Cooldowns = make(map[string]map[model.Pair]int, nCool)
	for i := 0; i < nCool && r.err == nil; i++ {
		name := r.str()
		nPairs := int(r.u32())
		m := make(map[model.Pair]int, nPairs)
		for j := 0; j < nPairs && r.err == nil; j++ {
			node := model.NodeID(r.i32())
			attr := model.AttrID(r.i32())
			at := r.i32()
			if r.err == nil {
				m[model.Pair{Node: node, Attr: attr}] = at
			}
		}
		if r.err == nil {
			s.Cooldowns[name] = m
		}
	}

	// Optional trailing fields: absent in older checkpoints.
	if r.err == nil && len(r.p) > 0 {
		s.Assignment = r.assignment()
		if len(s.Assignment) == 0 {
			s.Assignment = nil
		}
	}
	if r.err == nil && len(r.p) > 0 {
		s.Models = r.models()
	}
	if r.err != nil {
		return State{}, r.err
	}
	return s, nil
}

// Deterministic iteration orders keep checkpoint bytes reproducible.

func sortedNodes(m map[model.NodeID]int) []model.NodeID {
	out := make([]model.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeys(m map[string]map[model.Pair]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedAssignKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedModelPairs(m map[model.Pair]predict.Snapshot) []model.Pair {
	out := make([]model.Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	model.SortPairs(out)
	return out
}

func sortedPairs(m map[model.Pair]int) []model.Pair {
	out := make([]model.Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	model.SortPairs(out)
	return out
}
