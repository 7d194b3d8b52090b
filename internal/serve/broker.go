package serve

// The stream broker fans collected values, alerts and round markers out
// to SSE subscribers a round at a time. During a round the backend's
// hooks append pre-encoded SSE text to one pending chunk; when the round
// returns, the backend hands the broker the whole chunk under one lock,
// and each subscriber gets the kinds it asked for appended to its queue
// as one contiguous run. Its stream handler then writes everything
// queued with one Write and one Flush. Publishing never blocks the
// backend: a chunk that would overflow a slow subscriber's backlog is
// dropped whole, counted, and announced to that subscriber by a gap
// event.

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"remo/internal/metrics"
)

// kind is a stream event kind, one bit each so a filter is a mask.
type kind uint8

const (
	kindValue kind = 1 << iota
	kindAlert
	kindRound
	allKinds = kindValue | kindAlert | kindRound
)

// parseKinds maps a ?kinds= list onto a mask. A list naming nothing
// selects every kind; names the stream does not know select nothing.
func parseKinds(names []string) kind {
	mask, named := kind(0), false
	for _, n := range names {
		switch n {
		case "":
			continue
		case "value":
			mask |= kindValue
		case "alert":
			mask |= kindAlert
		case "round":
			mask |= kindRound
		}
		named = true
	}
	if !named {
		return allKinds
	}
	return mask
}

// appendJSONFloat appends f exactly as encoding/json writes a float64:
// 'f' format, switching to 'e' below 1e-6 and at or above 1e21, with a
// two-digit negative exponent shortened (e-09 → e-9). f must be finite.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendValueJSON appends json.Marshal(v) for a finite v.Value.
func appendValueJSON(dst []byte, v valueWire) []byte {
	dst = append(dst, `{"node":`...)
	dst = strconv.AppendInt(dst, int64(v.Node), 10)
	dst = append(dst, `,"attr":`...)
	dst = strconv.AppendInt(dst, int64(v.Attr), 10)
	dst = append(dst, `,"round":`...)
	dst = strconv.AppendInt(dst, int64(v.Round), 10)
	dst = append(dst, `,"value":`...)
	dst = appendJSONFloat(dst, v.Value)
	return append(dst, '}')
}

// appendGap appends the event that tells a subscriber how many events
// it lost since the last one it was told about.
func appendGap(dst []byte, dropped int) []byte {
	dst = append(dst, "event: gap\ndata: {\"dropped\":"...)
	dst = strconv.AppendInt(dst, int64(dropped), 10)
	return append(dst, "}\n\n"...)
}

// segment is a run of same-kind events in a chunk, ending at byte end.
type segment struct {
	kind   kind
	end    int
	events int
}

// chunk is one round's events as SSE text, in observation order. The
// backend's hooks append to it during the round; publish copies it out
// and resets it, keeping its capacity.
type chunk struct {
	mu   sync.Mutex
	buf  []byte
	segs []segment
	// Values and alerts that could not be encoded (a non-finite value):
	// every subscriber owed one loses it, counted as dropped.
	refusedValues, refusedAlerts int
}

// endEvent closes the event just appended, one of kind k.
func (c *chunk) endEvent(k kind) {
	if n := len(c.segs); n > 0 && c.segs[n-1].kind == k {
		c.segs[n-1].end = len(c.buf)
		c.segs[n-1].events++
		return
	}
	c.segs = append(c.segs, segment{kind: k, end: len(c.buf), events: 1})
}

func (c *chunk) appendValue(v valueWire) {
	c.mu.Lock()
	if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
		c.refusedValues++
	} else {
		c.buf = append(c.buf, "event: value\ndata: "...)
		c.buf = append(appendValueJSON(c.buf, v), "\n\n"...)
		c.endEvent(kindValue)
	}
	c.mu.Unlock()
}

func (c *chunk) appendAlert(a alertJSON) {
	data, err := json.Marshal(a)
	c.mu.Lock()
	if err != nil {
		c.refusedAlerts++
	} else {
		c.buf = append(c.buf, "event: alert\ndata: "...)
		c.buf = append(append(c.buf, data...), "\n\n"...)
		c.endEvent(kindAlert)
	}
	c.mu.Unlock()
}

func (c *chunk) appendRound(r roundWire) {
	c.mu.Lock()
	c.buf = append(c.buf, "event: round\ndata: {\"round\":"...)
	c.buf = strconv.AppendInt(c.buf, int64(r.Round), 10)
	c.buf = append(c.buf, `,"fingerprint":`...)
	c.buf = strconv.AppendUint(c.buf, r.Fingerprint, 10)
	c.buf = append(c.buf, "}\n\n"...)
	c.endEvent(kindRound)
	c.mu.Unlock()
}

// owed counts the events of the kinds in want: those encoded, and those
// refused. The caller holds c.mu.
func (c *chunk) owed(want kind) (events, refused int) {
	for _, s := range c.segs {
		if want&s.kind != 0 {
			events += s.events
		}
	}
	if want&kindValue != 0 {
		refused += c.refusedValues
	}
	if want&kindAlert != 0 {
		refused += c.refusedAlerts
	}
	return events, refused
}

// appendTo appends the events of the kinds in want to dst, in order.
// The caller holds c.mu.
func (c *chunk) appendTo(dst []byte, want kind) []byte {
	start := 0
	for _, s := range c.segs {
		if want&s.kind != 0 {
			dst = append(dst, c.buf[start:s.end]...)
		}
		start = s.end
	}
	return dst
}

// subscriber is one stream consumer.
type subscriber struct {
	want kind
	// wake holds a token while there is something to take: queued events,
	// or the broker letting go.
	wake chan struct{}

	// Guarded by the broker's mutex.
	queue  []byte // SSE text the handler has not taken yet
	events int    // events in queue, bounded by the broker's buffer
	lost   int    // events dropped since the last gap event
	closed bool
}

// signal leaves sub's handler a wake token, if none is there yet.
func (sub *subscriber) signal() {
	select {
	case sub.wake <- struct{}{}:
	default:
	}
}

// broker is the publish/subscribe hub.
type broker struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
	// buffer bounds a subscriber's backlog, in events. A round's chunk
	// always fits an empty backlog, so a subscriber that keeps up never
	// loses one however large a round grows.
	buffer int
	// live mirrors len(subs), so the hooks encode nothing while nobody
	// listens.
	live atomic.Int32

	events  *metrics.Counter
	dropped *metrics.Counter
	gauge   *metrics.Gauge
}

func newBroker(buffer int, events, dropped *metrics.Counter, gauge *metrics.Gauge) *broker {
	return &broker{
		subs:    make(map[*subscriber]struct{}),
		buffer:  buffer,
		events:  events,
		dropped: dropped,
		gauge:   gauge,
	}
}

// listening reports whether any subscriber is attached.
func (b *broker) listening() bool { return b.live.Load() > 0 }

// publish offers one round's chunk to every subscriber without blocking,
// then resets the chunk.
func (b *broker) publish(c *chunk) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b.mu.Lock()
	if !b.closed {
		for sub := range b.subs {
			b.offer(sub, c)
		}
	}
	b.mu.Unlock()
	c.buf, c.segs = c.buf[:0], c.segs[:0]
	c.refusedValues, c.refusedAlerts = 0, 0
}

// offer queues the kinds sub wants from c, or drops them whole when they
// would overflow its backlog. A subscriber that lost events is told how
// many, by a gap event ahead of the next events it is given. The caller
// holds b.mu and c.mu.
func (b *broker) offer(sub *subscriber, c *chunk) {
	n, refused := c.owed(sub.want)
	if n > 0 && sub.events > 0 && sub.events+n > b.buffer {
		sub.lost += n + refused
		b.dropped.Add(int64(n + refused))
		return
	}
	if refused > 0 {
		sub.lost += refused
		b.dropped.Add(int64(refused))
	}
	if n == 0 && sub.lost == 0 {
		return
	}
	if sub.lost > 0 {
		sub.queue = appendGap(sub.queue, sub.lost)
		sub.lost = 0
	}
	if n > 0 {
		sub.queue = c.appendTo(sub.queue, sub.want)
		sub.events += n
		b.events.Add(int64(n))
	}
	sub.signal()
}

// take hands the stream handler everything queued for sub, swapping in
// spare — the buffer it wrote last time — so a steady stream allocates
// nothing. open is false once the broker has let sub go.
func (b *broker) take(sub *subscriber, spare []byte) (queued []byte, open bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	queued, sub.queue = sub.queue, spare[:0]
	sub.events = 0
	return queued, !sub.closed
}

// subscribe registers a consumer of the kinds in want. It returns nil
// when the broker is closed.
func (b *broker) subscribe(want kind) *subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	sub := &subscriber{want: want, wake: make(chan struct{}, 1)}
	b.subs[sub] = struct{}{}
	b.setLive()
	return sub
}

// release lets go of sub and wakes its handler, which takes what is
// still queued and ends. The caller holds b.mu.
func (b *broker) release(sub *subscriber) {
	delete(b.subs, sub)
	sub.closed = true
	sub.signal()
}

// setLive refreshes the subscriber count the hooks and the gauge read.
// The caller holds b.mu.
func (b *broker) setLive() {
	b.live.Store(int32(len(b.subs)))
	b.gauge.Set(float64(len(b.subs)))
}

// unsubscribe detaches a consumer.
func (b *broker) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[sub]; ok {
		b.release(sub)
		b.setLive()
	}
}

// close disconnects every subscriber and refuses new ones (drain).
func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		b.release(sub)
	}
	b.setLive()
}
