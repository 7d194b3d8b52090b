package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"remo/internal/model"
)

// Wire format (all fixed-width integers big-endian):
//
//	frame   := length(uint32) payload
//	payload := keyLen(uint16) key from(int32) to(int32) epoch(uint32)
//	           count(uint32) beatCount(uint32)
//	           suppCount(uint32) syncCount(uint32)
//	           value* beat* supp-section sync-section
//	value   := node(int32) attr(int32) round(int32) bits(uint64)
//	beat    := node(int32) round(int32)
//
// A supp-section (and identically a sync-section) is a run of
// suppCount delta-coded slot identities, sorted by (round, node, attr):
//
//	supp    := roundΔ(zigzag-uvarint) nodeΔ(zigzag-uvarint)
//	           attrΔ(zigzag-uvarint)
//
// where each Δ is against the previous entry ((0,0,0) for the first).
// Canonical ordering makes the deltas small — a suppressed slot
// typically costs 3 bytes, versus 20 for a full value — and lets the
// decoder reject out-of-order sections, so decode∘encode is exact.
//
// A TCP/IP monitoring message carries at least ~78 bytes of protocol
// headers (§2.3); this compact application framing keeps the per-message
// overhead visible but small.
//
// The layout constants below are the single source of truth for the
// format: EncodedSize, AppendEncode and decodePayloadInto are all
// written against them, so a format change is a one-place edit.

// Wire-layout sizes in bytes.
const (
	framePrefixSize = 4 // length prefix
	keyLenSize      = 2 // keyLen field
	// from, to, epoch, count, beatCount, suppCount, syncCount
	fixedHeaderSize = 4 + 4 + 4 + 4 + 4 + 4 + 4
	valueSize       = 4 + 4 + 4 + 8 // node, attr, round, bits
	beatSize        = 4 + 4         // node, round
	// minSuppSize is the smallest possible encoded supp entry (three
	// one-byte varints); used to bound counts before allocating.
	minSuppSize = 3
)

// Codec limits, protecting against corrupt frames.
const (
	maxFrameSize = 16 << 20
	maxKeyLen    = 1 << 15
)

// ErrFrameTooLarge is returned for frames beyond maxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// EncodedSize returns the payload size of msg in bytes. The size of
// the delta-coded sections depends on their order, so msg.Suppressed
// and msg.Syncs are canonicalized (sorted in place) first, exactly as
// AppendEncode would.
func EncodedSize(msg Message) int {
	sortSupps(msg.Suppressed)
	sortSupps(msg.Syncs)
	return keyLenSize + len(msg.TreeKey) + fixedHeaderSize +
		len(msg.Values)*valueSize + len(msg.Beats)*beatSize +
		suppSectionSize(msg.Suppressed) + suppSectionSize(msg.Syncs)
}

// FrameSize returns the full on-wire size of msg — length prefix plus
// payload — without encoding it. Byte-accounting harnesses (the
// suppression benchmark's counting transport) use it to measure what a
// message would cost on a real link even over the in-memory transport.
func FrameSize(msg Message) int {
	return framePrefixSize + EncodedSize(msg)
}

// sortSupps puts a supp section into canonical wire order.
func sortSupps(s []Supp) {
	slices.SortFunc(s, func(a, b Supp) int {
		if a.Round != b.Round {
			return a.Round - b.Round
		}
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		return int(a.Attr) - int(b.Attr)
	})
}

// suppSectionSize returns the encoded size of an already-canonical
// supp section.
func suppSectionSize(s []Supp) int {
	size := 0
	pr, pn, pa := 0, 0, 0
	for _, e := range s {
		size += uvarintSize(zigzagEnc(int64(e.Round - pr)))
		size += uvarintSize(zigzagEnc(int64(int(e.Node) - pn)))
		size += uvarintSize(zigzagEnc(int64(int(e.Attr) - pa)))
		pr, pn, pa = e.Round, int(e.Node), int(e.Attr)
	}
	return size
}

// uvarintSize is the encoded length of u as a uvarint.
func uvarintSize(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// zigzagEnc maps signed deltas onto uvarints with small magnitudes
// staying small in either direction.
func zigzagEnc(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// zigzagDec inverts zigzagEnc.
func zigzagDec(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendSuppSection serializes an already-canonical supp section.
func appendSuppSection(dst []byte, s []Supp) []byte {
	pr, pn, pa := 0, 0, 0
	for _, e := range s {
		dst = binary.AppendUvarint(dst, zigzagEnc(int64(e.Round-pr)))
		dst = binary.AppendUvarint(dst, zigzagEnc(int64(int(e.Node)-pn)))
		dst = binary.AppendUvarint(dst, zigzagEnc(int64(int(e.Attr)-pa)))
		pr, pn, pa = e.Round, int(e.Node), int(e.Attr)
	}
	return dst
}

// AppendEncode serializes msg into a self-delimiting frame appended to
// dst and returns the extended slice. It allocates only when dst lacks
// capacity, so callers reusing a buffer encode with zero steady-state
// allocations.
func AppendEncode(dst []byte, msg Message) ([]byte, error) {
	if len(msg.TreeKey) > maxKeyLen {
		return dst, fmt.Errorf("transport: tree key too long (%d)", len(msg.TreeKey))
	}
	size := EncodedSize(msg)
	if size > maxFrameSize {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg.TreeKey)))
	dst = append(dst, msg.TreeKey...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(msg.From)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(msg.To)))
	dst = binary.BigEndian.AppendUint32(dst, msg.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg.Values)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg.Beats)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg.Suppressed)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg.Syncs)))
	for _, v := range msg.Values {
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(v.Node)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(v.Attr)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(v.Round)))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Value))
	}
	for _, b := range msg.Beats {
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(b.Node)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(b.Round)))
	}
	dst = appendSuppSection(dst, msg.Suppressed)
	dst = appendSuppSection(dst, msg.Syncs)
	return dst, nil
}

// Encode serializes msg into a freshly allocated self-delimiting frame.
// Hot paths should prefer AppendEncode into a reused buffer.
func Encode(msg Message) ([]byte, error) {
	buf, err := AppendEncode(make([]byte, 0, framePrefixSize+EncodedSize(msg)), msg)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Decoder reads frames from one stream, reusing its payload buffer
// across messages and interning tree keys, so the per-message
// allocations are limited to the decoded Values/Beats slices — and
// DecodeInto eliminates those too by reusing the caller's Message.
type Decoder struct {
	r       io.Reader
	lenBuf  [framePrefixSize]byte
	payload []byte
	keys    map[string]string
}

// NewDecoder returns a Decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, keys: make(map[string]string, 8)}
}

// Decode reads the next frame and returns the message with
// freshly allocated Values/Beats slices, safe to retain indefinitely.
func (d *Decoder) Decode() (Message, error) {
	var msg Message
	if err := d.decode(&msg, false); err != nil {
		return Message{}, err
	}
	return msg, nil
}

// DecodeInto reads the next frame into msg, reusing msg's Values/Beats
// capacity. The decoded slices are owned by msg until the next
// DecodeInto call with the same message; retain a copy if needed
// longer.
func (d *Decoder) DecodeInto(msg *Message) error {
	return d.decode(msg, true)
}

func (d *Decoder) decode(msg *Message, reuse bool) error {
	if _, err := io.ReadFull(d.r, d.lenBuf[:]); err != nil {
		return err
	}
	size := int(binary.BigEndian.Uint32(d.lenBuf[:]))
	if size > maxFrameSize {
		return ErrFrameTooLarge
	}
	if cap(d.payload) < size {
		d.payload = make([]byte, size)
	}
	p := d.payload[:size]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return fmt.Errorf("transport: short frame: %w", err)
	}
	return decodePayloadInto(p, msg, d, nil, reuse)
}

// internKey returns a string for the key bytes, reusing a previously
// decoded instance when possible: tree keys repeat every round, so the
// steady state allocates no strings. The table is capped to stay
// bounded against adversarial streams.
func (d *Decoder) internKey(k []byte) string {
	if len(k) == 0 {
		return ""
	}
	if s, ok := d.keys[string(k)]; ok { // no alloc: map lookup by []byte
		return s
	}
	if len(d.keys) >= 1024 {
		d.keys = make(map[string]string, 8)
	}
	s := string(k)
	d.keys[s] = s
	return s
}

// Decode reads one frame from r and deserializes it, allocating fresh
// backing storage. Streaming readers should hold a Decoder instead.
func Decode(r io.Reader) (Message, error) {
	var lenBuf [framePrefixSize]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Message{}, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > maxFrameSize {
		return Message{}, ErrFrameTooLarge
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Message{}, fmt.Errorf("transport: short frame: %w", err)
	}
	return decodePayload(payload)
}

// decodePayload deserializes one frame payload into a fresh Message.
func decodePayload(p []byte) (Message, error) {
	var msg Message
	if err := decodePayloadInto(p, &msg, nil, nil, false); err != nil {
		return Message{}, err
	}
	return msg, nil
}

// decodePayloadInto deserializes one frame payload. When d is non-nil
// tree keys are interned through it. The message's slices are carved
// from a when it is non-nil; otherwise they reuse the message's
// existing capacity when reuse is set, or are freshly allocated.
func decodePayloadInto(p []byte, msg *Message, d *Decoder, a *arena, reuse bool) error {
	if len(p) < keyLenSize {
		return errors.New("transport: truncated key length")
	}
	keyLen := int(binary.BigEndian.Uint16(p))
	p = p[keyLenSize:]
	if len(p) < keyLen+fixedHeaderSize {
		return errors.New("transport: truncated header")
	}
	if d != nil {
		msg.TreeKey = d.internKey(p[:keyLen])
	} else {
		msg.TreeKey = string(p[:keyLen])
	}
	p = p[keyLen:]
	msg.From = model.NodeID(int32(binary.BigEndian.Uint32(p)))
	msg.To = model.NodeID(int32(binary.BigEndian.Uint32(p[4:])))
	msg.Epoch = binary.BigEndian.Uint32(p[8:])
	count := int(binary.BigEndian.Uint32(p[12:]))
	beatCount := int(binary.BigEndian.Uint32(p[16:]))
	suppCount := int(binary.BigEndian.Uint32(p[20:]))
	syncCount := int(binary.BigEndian.Uint32(p[24:]))
	p = p[fixedHeaderSize:]
	if count < 0 || beatCount < 0 ||
		count > len(p)/valueSize || beatCount > (len(p)-count*valueSize)/beatSize {
		return fmt.Errorf("transport: body is %d bytes, want %d values and %d beats",
			len(p), count, beatCount)
	}
	// Bound the variable sections by their minimum entry size before
	// allocating, so a corrupt count cannot balloon memory.
	varBytes := len(p) - count*valueSize - beatCount*beatSize
	if suppCount < 0 || syncCount < 0 ||
		suppCount > varBytes/minSuppSize || syncCount > varBytes/minSuppSize {
		return fmt.Errorf("transport: %d bytes of sections cannot hold %d supps and %d syncs",
			varBytes, suppCount, syncCount)
	}
	prevValues, prevBeats := msg.Values, msg.Beats
	prevSupps, prevSyncs := msg.Suppressed, msg.Syncs
	msg.Values, msg.Beats = nil, nil
	msg.Suppressed, msg.Syncs = nil, nil
	if count > 0 {
		if a != nil {
			msg.Values = carve(&a.values, count)
		} else {
			msg.Values = sliceFor(prevValues, count, reuse)
		}
		for i := 0; i < count; i++ {
			off := i * valueSize
			msg.Values[i] = Value{
				Node:  model.NodeID(int32(binary.BigEndian.Uint32(p[off:]))),
				Attr:  model.AttrID(int32(binary.BigEndian.Uint32(p[off+4:]))),
				Round: int(int32(binary.BigEndian.Uint32(p[off+8:]))),
				Value: math.Float64frombits(binary.BigEndian.Uint64(p[off+12:])),
			}
		}
		p = p[count*valueSize:]
	}
	if beatCount > 0 {
		if a != nil {
			msg.Beats = carve(&a.beats, beatCount)
		} else {
			msg.Beats = sliceFor(prevBeats, beatCount, reuse)
		}
		for i := 0; i < beatCount; i++ {
			off := i * beatSize
			msg.Beats[i] = Beat{
				Node:  model.NodeID(int32(binary.BigEndian.Uint32(p[off:]))),
				Round: int(int32(binary.BigEndian.Uint32(p[off+4:]))),
			}
		}
		p = p[beatCount*beatSize:]
	}
	supps := func(prev []Supp, n int) []Supp {
		switch {
		case n == 0:
			return nil
		case a != nil:
			return carve(&a.supps, n)
		default:
			return sliceFor(prev, n, reuse)
		}
	}
	var err error
	if msg.Suppressed, p, err = decodeSuppSection(p, supps(prevSupps, suppCount)); err != nil {
		return fmt.Errorf("transport: supp section: %w", err)
	}
	if msg.Syncs, p, err = decodeSuppSection(p, supps(prevSyncs, syncCount)); err != nil {
		return fmt.Errorf("transport: sync section: %w", err)
	}
	if len(p) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after sections", len(p))
	}
	return nil
}

// decodeSuppSection parses len(out) delta-coded supp entries off the
// front of p into out, returning the entries and the remaining bytes. Non-canonical
// (out-of-order) sections, malformed varints, and deltas accumulating
// outside int32 are rejected with an error — never a panic — so a
// corrupt or adversarial section cannot poison the replica protocol.
func decodeSuppSection(p []byte, out []Supp) ([]Supp, []byte, error) {
	pr, pn, pa := 0, 0, 0
	for i := range out {
		var d [3]int
		for j := range d {
			u, k := binary.Uvarint(p)
			if k <= 0 {
				return nil, p, fmt.Errorf("malformed varint in entry %d", i)
			}
			p = p[k:]
			v := zigzagDec(u)
			if v < math.MinInt32 || v > math.MaxInt32 {
				return nil, p, fmt.Errorf("delta %d out of range in entry %d", v, i)
			}
			d[j] = int(v)
		}
		r, nd, a := pr+d[0], pn+d[1], pa+d[2]
		if r < math.MinInt32 || r > math.MaxInt32 ||
			nd < math.MinInt32 || nd > math.MaxInt32 ||
			a < math.MinInt32 || a > math.MaxInt32 {
			return nil, p, fmt.Errorf("entry %d accumulates outside int32", i)
		}
		if i > 0 && (r < pr || (r == pr && (nd < pn || (nd == pn && a < pa)))) {
			return nil, p, fmt.Errorf("entry %d out of canonical order", i)
		}
		out[i] = Supp{Node: model.NodeID(nd), Attr: model.AttrID(a), Round: r}
		pr, pn, pa = r, nd, a
	}
	return out, p, nil
}

// sliceFor returns a slice of length n, reusing prev's capacity when
// reuse is set and it suffices.
func sliceFor[T any](prev []T, n int, reuse bool) []T {
	if reuse && cap(prev) >= n {
		return prev[:n]
	}
	return make([]T, n)
}

// arena backs the slices of one mailbox buffer's decoded messages: each
// message's Values, Beats and supp sections are consecutive, capped
// windows of one array per kind, so decoding a round allocates only
// when the round outgrows every earlier one.
type arena struct {
	values []Value
	beats  []Beat
	supps  []Supp
}

// reset empties the arena for the buffer's next round; the messages
// that used it must have been handed back.
func (a *arena) reset() {
	a.values, a.beats, a.supps = a.values[:0], a.beats[:0], a.supps[:0]
}

// carve takes the next n elements of *a as a slice capped at n, so an
// append by its owner cannot reach its neighbour. An arena too small
// moves to a new array of twice the size; the windows already carved
// keep the old one.
func carve[T any](a *[]T, n int) []T {
	s := *a
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(2*cap(s), n))
	}
	l := len(s)
	*a = s[:l+n]
	return s[l : l+n : l+n]
}
