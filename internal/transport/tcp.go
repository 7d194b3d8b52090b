package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"remo/internal/model"
)

// TCPOptions tunes the TCP transport's failure handling and write
// batching. The zero value selects the defaults noted on each field.
type TCPOptions struct {
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (default 2s).
	WriteTimeout time.Duration
	// MaxRetries is how many additional attempts a write makes after the
	// first failure — re-dialing evicted connections between attempts —
	// before declaring the destination unreachable (default 3).
	MaxRetries int
	// BackoffBase is the backoff before the first retry (default 2ms);
	// it doubles per attempt with jitter, capped at BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the per-attempt backoff (default 100ms).
	BackoffMax time.Duration
	// BatchBytes is the per-destination write-coalescing watermark:
	// frames accepted by Send accumulate in one buffer per destination
	// and are written in a single syscall when the buffer reaches
	// BatchBytes or at the round barrier, cutting syscalls and lock
	// acquisitions from one per message to one per destination per
	// round. 0 (or less) selects the default (32 KiB); a watermark of 1
	// flushes on every Send, surfacing write errors synchronously.
	// Either way a write before the destination's Drain stops at
	// unreadChunk unread, and the Drain writes the rest.
	BatchBytes int
}

// withDefaults fills in the zero fields.
func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 2 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 2 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 100 * time.Millisecond
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = 32 << 10
	}
	return o
}

// destQueue is the per-destination write state: the coalescing buffer,
// and the write lock serializing senders to one peer without holding
// the transport lock (a stalled TCP write must never block Drain).
type destQueue struct {
	mu sync.Mutex
	// buf[head:] holds the frames queued and not yet written.
	buf    []byte
	head   int
	frames int
	// failed latches a flush failure so the next Send to this
	// destination reports the dead peer instead of silently buffering
	// forever. It clears on read, giving the link a fresh chance — a
	// recovered peer starts delivering again after one reported drop.
	failed bool
	// streak counts consecutive failed write attempts to this
	// destination across Sends and Flushes: it escalates the starting
	// backoff while the peer stays unreachable, and resets to zero the
	// moment a write succeeds, so a peer recovering from a long outage
	// pays base backoff — not max — on its next transient error.
	streak int
}

// maxStreak caps the backoff-escalation exponent contributed by a
// destination's failure streak.
const maxStreak = 16

// bumpStreak records one failed write attempt.
func (q *destQueue) bumpStreak() {
	if q.streak < maxStreak {
		q.streak++
	}
}

// unreadChunk bounds what one destination may hold written but not yet
// decoded, for every write but its reader's own. It sits below a
// loopback connection's initial receive window, so a Send's watermark
// flush or a writer pass never waits on a read that only a later Drain
// of the same round would perform; whatever would go past it stays
// queued. The destination's reader — its Drain, or Flush for the
// collector — writes the rest, alternating writes of at most a chunk
// with reads.
const unreadChunk = 32 << 10

// minReadRoom is the read buffer a connection starts with (bufio's
// default). A connection whose reads fill its buffer doubles it, up to
// unreadChunk, and a frame larger than the buffer grows it to fit.
const minReadRoom = 4 << 10

// inbox is one node's mailbox and the connections its reader pulls
// frames from. written counts the frames written to the node and
// wbytes their bytes; decoded and rbytes count what its reader has
// decoded. The mailbox lock is the reader's: a Drain (or Flush, for the
// collector) holds it while it reads, and it guards the read state.
type inbox struct {
	mailbox
	written, decoded atomic.Int64
	wbytes, rbytes   atomic.Int64

	// dec interns the tree keys of every connection's frames.
	dec Decoder
	// cur backs the slices of the messages in msgs, old those of the
	// buffer the last Drain handed out.
	cur, old arena

	// connMu guards conns: the accepted connections, oldest first,
	// which the accept loop appends to and Close closes.
	connMu sync.Mutex
	conns  []*inConn
	// accepted holds a token once a connection joins conns.
	accepted chan struct{}
}

func newInbox() *inbox {
	return &inbox{
		dec:      Decoder{keys: make(map[string]string, 8)},
		accepted: make(chan struct{}, 1),
	}
}

// unread is what was written to the node and not yet decoded. A write
// that fails partway can leave more decoded than counted as written,
// hence the floor.
func (b *inbox) unread() int {
	return max(0, int(b.wbytes.Load()-b.rbytes.Load()))
}

// caughtUp reports whether every frame written to the node is decoded.
func (b *inbox) caughtUp() bool { return b.decoded.Load() >= b.written.Load() }

// slot extends the mailbox by one message and returns it for decoding
// in place.
func (b *inbox) slot() *Message {
	if len(b.msgs) < cap(b.msgs) {
		b.msgs = b.msgs[:len(b.msgs)+1]
	} else {
		b.msgs = append(b.msgs, Message{})
	}
	return &b.msgs[len(b.msgs)-1]
}

// decodeFrom decodes the whole frames buffered on c into the mailbox
// and reports how many it decoded; a frame that does not decode is an
// error. The caller holds b.mu.
func (b *inbox) decodeFrom(c *inConn) (int, error) {
	got := 0
	for {
		p := c.buf[c.off:]
		if len(p) < framePrefixSize {
			return got, nil
		}
		size := int(binary.BigEndian.Uint32(p))
		if size > maxFrameSize {
			return got, ErrFrameTooLarge
		}
		if len(p) < framePrefixSize+size {
			return got, nil
		}
		msg := b.slot()
		if err := decodePayloadInto(p[framePrefixSize:framePrefixSize+size], msg, &b.dec, &b.cur, true); err != nil {
			*msg = Message{}
			b.msgs = b.msgs[:len(b.msgs)-1]
			return got, err
		}
		c.off += framePrefixSize + size
		b.decoded.Add(1)
		b.rbytes.Add(int64(framePrefixSize + size))
		got++
	}
}

// take hands out the mailbox's messages, re-arming the other buffer
// and its arena (see mailbox.swap). The caller holds b.mu.
func (b *inbox) take() []Message {
	msgs := b.swap()
	b.old.reset()
	b.cur, b.old = b.old, b.cur
	return msgs
}

// head returns the oldest accepted connection, or nil.
func (b *inbox) head() *inConn {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if len(b.conns) == 0 {
		return nil
	}
	return b.conns[0]
}

// drop closes c and removes it from the accepted connections.
func (b *inbox) drop(c *inConn) {
	b.connMu.Lock()
	if i := slices.Index(b.conns, c); i >= 0 {
		b.conns = slices.Delete(b.conns, i, i+1)
	}
	b.connMu.Unlock()
	_ = c.conn.Close()
}

// inConn is one accepted connection and the bytes read from it that are
// not yet decoded (buf[off:]).
type inConn struct {
	conn net.Conn
	// remote is the sender's address, which names the connection a
	// sender writes to.
	remote string
	buf    []byte
	off    int
	// filled records that the last read filled the buffer.
	filled bool
}

// buffered is how many undecoded bytes c holds.
func (c *inConn) buffered() int { return len(c.buf) - c.off }

// fill reads once from the connection, waiting at most wait. It first
// makes room: the undecoded bytes move to the front, and the buffer
// grows to hold the whole frame they start, or doubles (up to
// unreadChunk) when the last read filled it.
func (c *inConn) fill(wait time.Duration) error {
	if c.off > 0 {
		n := copy(c.buf, c.buf[c.off:])
		c.buf, c.off = c.buf[:n], 0
	}
	need := max(len(c.buf)+1, minReadRoom)
	if len(c.buf) >= framePrefixSize {
		need = max(need, framePrefixSize+int(binary.BigEndian.Uint32(c.buf)))
	}
	if c.filled && cap(c.buf) < unreadChunk {
		need = max(need, 2*cap(c.buf))
	}
	if need > cap(c.buf) {
		c.buf = append(make([]byte, 0, need), c.buf...)
	}
	// A deadline that cannot be set means the connection is closed,
	// which the read reports.
	_ = c.conn.SetReadDeadline(time.Now().Add(wait))
	room := c.buf[len(c.buf):cap(c.buf)]
	n, err := c.conn.Read(room)
	c.filled = n == len(room)
	c.buf = c.buf[:len(c.buf)+n]
	if n > 0 {
		return nil
	}
	return err
}

// deliveryWait bounds each wait for a mailbox's frames: each read, and
// each wait for a connection to be accepted.
const deliveryWait = 10 * time.Second

// TCP is a loopback transport: every node (including the central
// collector) owns a TCP listener, senders keep one connection per
// destination, and frames use the binary codec. It exists to validate
// the emulation against a real network stack; experiments default to the
// memory transport.
//
// Writes are batched per destination (see TCPOptions.BatchBytes):
// frames accepted by Send accumulate in one buffer per peer and go out
// in a single syscall at the size watermark, at the round barrier, or
// from the writer goroutine. Reads are pulled by their consumer: no
// goroutine reads a connection; a node's Drain writes its queue if the
// writer has not and then reads its own connection until its mailbox
// holds every frame written to it, and Flush does the same for the
// collector before waking the writer to write every node's queue while
// the caller absorbs. No write but the reader's own may leave a
// destination more than unreadChunk unread.
//
// Failures are retried with capped jittered backoff; the backoff wait
// observes Close, so closing the transport unblocks in-flight retries
// promptly. When every attempt fails the frames are dropped (counted in
// LostFrames), the error wraps ErrUnreachable, and the destination's
// failed latch makes the next Send report the dead peer.
type TCP struct {
	// mu guards listeners, conns and waitErr.
	mu        sync.Mutex
	listeners map[model.NodeID]net.Listener
	conns     map[model.NodeID]net.Conn
	// addrs, queues and boxes are fixed at construction and read
	// without a lock: the destinations' addresses, write queues and
	// mailboxes.
	addrs  map[model.NodeID]string
	queues map[model.NodeID]*destQueue
	boxes  map[model.NodeID]*inbox
	// nodes are the destinations NewTCP was given (the collector aside),
	// ascending: the writer's order, which is the round engine's state
	// order.
	nodes []model.NodeID
	// closedCh is closed when Close begins.
	closedCh chan struct{}
	// wake holds a token when Flush has asked the writer for a pass.
	wake chan struct{}
	// waitErr is a Drain's delivery wait that gave up, kept for the next
	// Flush to return.
	waitErr error
	// waitLimit bounds every delivery wait (deliveryWait).
	waitLimit time.Duration
	wg        sync.WaitGroup
	opts      TCPOptions

	lostFrames atomic.Int64
	// jitterState seeds the deterministic backoff jitter.
	jitterState atomic.Uint64
}

var _ Transport = (*TCP)(nil)

// NewTCP starts one loopback listener per node (plus the central
// collector) on ephemeral ports, with default failure-handling and
// batching options.
func NewTCP(nodes []model.NodeID) (*TCP, error) {
	return NewTCPWithOptions(nodes, TCPOptions{})
}

// NewTCPWithOptions is NewTCP with explicit options.
func NewTCPWithOptions(nodes []model.NodeID, opts TCPOptions) (*TCP, error) {
	t := &TCP{
		addrs:     make(map[model.NodeID]string, len(nodes)+1),
		listeners: make(map[model.NodeID]net.Listener, len(nodes)+1),
		conns:     make(map[model.NodeID]net.Conn, len(nodes)+1),
		queues:    make(map[model.NodeID]*destQueue, len(nodes)+1),
		boxes:     make(map[model.NodeID]*inbox, len(nodes)+1),
		closedCh:  make(chan struct{}),
		wake:      make(chan struct{}, 1),
		waitLimit: deliveryWait,
		opts:      opts.withDefaults(),
	}
	all := append([]model.NodeID{model.Central}, nodes...)
	for _, n := range all {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.Close()
			return nil, fmt.Errorf("listen for %v: %w", n, err)
		}
		t.listeners[n] = ln
		t.addrs[n] = ln.Addr().String()
		t.boxes[n] = newInbox()
		t.queues[n] = &destQueue{}
		t.wg.Add(1)
		go t.accept(t.boxes[n], ln)
	}
	t.nodes = slices.Clone(nodes)
	slices.Sort(t.nodes)
	t.wg.Add(1)
	go t.writeLoop()
	return t, nil
}

// accept owns one node's listener, registering each inbound connection
// with the node's inbox for its reader.
func (t *TCP) accept(box *inbox, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		box.connMu.Lock()
		if t.isClosed() {
			_ = conn.Close()
		} else {
			box.conns = append(box.conns, &inConn{conn: conn, remote: conn.RemoteAddr().String()})
		}
		box.connMu.Unlock()
		select {
		case box.accepted <- struct{}{}:
		default:
		}
	}
}

// Send implements Transport. The frame is appended to the destination's
// coalescing buffer and written out at the size watermark, by Flush or
// the writer, or by the destination's Drain; a destination whose last
// batch was lost reports ErrUnreachable once before accepting new
// frames. It takes only the destination's lock.
func (t *TCP) Send(msg Message) error {
	if t.isClosed() {
		return ErrClosed
	}
	q, ok := t.queues[msg.To]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownDestination, msg.To)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.failed {
		q.failed = false
		return fmt.Errorf("send to %v: previous batch lost: %w", msg.To, ErrUnreachable)
	}
	buf, err := AppendEncode(q.buf, msg)
	if err != nil {
		return err
	}
	q.buf = buf
	q.frames++
	if len(q.buf)-q.head < t.opts.BatchBytes {
		return nil
	}
	if _, err := t.flushQueueLocked(msg.To, q, false); err != nil {
		if IsUnreachable(err) {
			// The error is surfaced to this caller, who accounts for
			// this message; only the other coalesced frames count as
			// lost here.
			t.lostFrames.Add(-1)
		}
		return err
	}
	return nil
}

// flushQueueLocked writes the head of the destination's queue in one
// syscall, retrying with backoff: as many whole frames as keep the
// destination within unreadChunk unread, and it reports whether frames
// remain queued. For the destination's reader (reader set, with the
// mailbox lock held), what it has already decoded is not unread, and a
// head frame larger than the chunk is written in pieces, each read
// before the next (writePaced). Exhaustion drops every queued frame
// (counted in LostFrames) and returns an error wrapping ErrUnreachable.
// The caller holds q.mu.
func (t *TCP) flushQueueLocked(to model.NodeID, q *destQueue, reader bool) (more bool, err error) {
	if q.frames == 0 {
		return false, nil
	}
	box := t.boxes[to]
	caughtUp := reader && box.caughtUp()
	budget := unreadChunk
	if !caughtUp {
		budget -= box.unread()
	}
	queued := q.buf[q.head:]
	nb, nf := len(queued), q.frames
	if nb > budget {
		nb, nf = framesWithin(queued, budget)
	}
	paced := nf == 0
	if paced {
		if !caughtUp {
			return true, nil
		}
		nb, nf = framePrefixSize+int(binary.BigEndian.Uint32(queued)), 1
	}
	var lastErr error
	for attempt := 0; attempt <= t.opts.MaxRetries; attempt++ {
		if attempt > 0 && !t.waitBackoff(attempt+q.streak) {
			return false, ErrClosed
		}
		if t.isClosed() {
			return false, ErrClosed
		}
		conn, err := t.connTo(to)
		if err != nil {
			lastErr = err
			q.bumpStreak()
			continue
		}
		if paced {
			err = t.writePaced(to, box, conn, queued[:nb])
		} else {
			err = t.writeConn(to, conn, queued[:nb])
		}
		if err != nil {
			lastErr = err
			q.bumpStreak()
			t.evict(to, conn)
			continue
		}
		q.streak = 0
		box.written.Add(int64(nf))
		box.wbytes.Add(int64(nb))
		q.head += nb
		q.frames -= nf
		if 2*q.head >= len(q.buf) {
			// What was written is most of the buffer: move the rest to
			// the front. Each move copies fewer bytes than were written
			// since the last, so a deferred remainder costs O(bytes).
			q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
		}
		return q.frames > 0, nil
	}
	t.lostFrames.Add(int64(q.frames))
	q.buf, q.head, q.frames = q.buf[:0], 0, 0
	return false, fmt.Errorf("flush to %v failed after %d attempts: %w (last: %v)",
		to, t.opts.MaxRetries+1, ErrUnreachable, lastErr)
}

// framesWithin measures the whole frames at the head of buf that fit in
// limit bytes: their length and count.
func framesWithin(buf []byte, limit int) (nb, nf int) {
	for nb+framePrefixSize <= len(buf) {
		next := nb + framePrefixSize + int(binary.BigEndian.Uint32(buf[nb:]))
		if next > limit {
			break
		}
		nb, nf = next, nf+1
	}
	return nb, nf
}

// writePaced writes one frame larger than unreadChunk to the
// destination's connection a chunk at a time, reading each chunk off
// the destination's side before writing the next, so no write waits on
// a read. Only the destination's reader calls it, with its mailbox
// caught up and its lock held.
func (t *TCP) writePaced(to model.NodeID, box *inbox, conn net.Conn, frame []byte) error {
	want := conn.LocalAddr().String()
	for off := 0; off < len(frame); {
		end := min(off+unreadChunk, len(frame))
		if err := t.writeConn(to, conn, frame[off:end]); err != nil {
			return err
		}
		off = end
		if off == len(frame) {
			return nil
		}
		// Wait until the frame's first off bytes are buffered on the
		// connection written to; older connections are read to their end
		// on the way.
		for {
			c, err := t.headConn(to, box)
			if err != nil {
				return err
			}
			if c.remote == want && c.buffered() >= off {
				break
			}
			if err := t.readStep(to, box, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// connTo returns the cached connection to the destination, dialing one
// (with the configured timeout) when none is cached. Callers hold the
// destination queue's lock, so a destination's dials are sequential.
func (t *TCP) connTo(to model.NodeID) (net.Conn, error) {
	t.mu.Lock()
	conn := t.conns[to]
	t.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	c, err := net.DialTimeout("tcp", t.addrs[to], t.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial %v: %w", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.isClosed() {
		_ = c.Close()
		return nil, ErrClosed
	}
	t.conns[to] = c
	return c, nil
}

// writeConn writes one buffer under the configured deadline. Callers
// serialize per destination via the destination queue's lock.
func (t *TCP) writeConn(to model.NodeID, conn net.Conn, buf []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout)); err != nil {
		return fmt.Errorf("write deadline for %v: %w", to, err)
	}
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("write to %v: %w", to, err)
	}
	return nil
}

// evict drops a broken connection from the cache (only if it is still
// the cached one — a concurrent sender may have replaced it already) so
// the next attempt re-dials instead of failing forever against a closed
// socket. Closing it ends the receiving side's copy, which the reader
// then reads to its end before moving on to the next.
func (t *TCP) evict(to model.NodeID, conn net.Conn) {
	t.mu.Lock()
	if t.conns[to] == conn {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	_ = conn.Close()
}

// isClosed reports whether Close has begun.
func (t *TCP) isClosed() bool {
	select {
	case <-t.closedCh:
		return true
	default:
		return false
	}
}

// waitBackoff sleeps the backoff before the given retry attempt,
// returning early (false) when the transport closes — Close must not
// wait out in-flight retry backoffs.
func (t *TCP) waitBackoff(attempt int) bool {
	timer := time.NewTimer(t.backoff(attempt))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.closedCh:
		return false
	}
}

// backoff computes the sleep before the given retry attempt (1-based):
// exponential from BackoffBase, capped at BackoffMax, plus up to 50%
// deterministic jitter to de-synchronize concurrent senders.
func (t *TCP) backoff(attempt int) time.Duration {
	d := t.opts.BackoffBase
	for i := 1; i < attempt && d < t.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > t.opts.BackoffMax {
		d = t.opts.BackoffMax
	}
	// splitmix64 step over a shared counter: cheap, lock-free jitter.
	s := t.jitterState.Add(0x9E3779B97F4A7C15)
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	jitter := time.Duration(s % uint64(d/2+1))
	return d + jitter
}

// Flush implements Transport. It returns a delivery wait that a Drain
// gave up on since the last Flush; otherwise it writes and reads the
// collector's mailbox (see finish) and then wakes the writer, which
// writes every other queue while the caller absorbs what the collector
// received.
func (t *TCP) Flush() error {
	if t.isClosed() {
		return ErrClosed
	}
	t.mu.Lock()
	err := t.waitErr
	t.waitErr = nil
	t.mu.Unlock()
	if err != nil {
		return err
	}
	box := t.boxes[model.Central]
	box.mu.Lock()
	err = t.finish(model.Central, box)
	box.mu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default:
	}
	return err
}

// Drain implements Transport. It first finishes n's mailbox, so it
// returns every frame sent to n before the call whether or not a Flush
// ran; a wait that gives up is latched for the next Flush to return.
// Like Memory's, the returned slice is reused by the next-but-one Drain
// of the same node; callers own it only until their next Drain call.
func (t *TCP) Drain(n model.NodeID) []Message {
	box, ok := t.boxes[n]
	if !ok {
		return nil
	}
	box.mu.Lock()
	err := t.finish(n, box)
	msgs := box.take()
	box.mu.Unlock()
	if err != nil && !errors.Is(err, ErrClosed) {
		t.mu.Lock()
		if t.waitErr == nil {
			t.waitErr = err
		}
		t.mu.Unlock()
	}
	sortMessages(msgs)
	return msgs
}

// finish writes n's queue and reads n's connections until the mailbox
// holds every frame written to n. A queue too large to write unread at
// once goes out a chunk per pass, each pass read before the next. The
// caller holds box.mu.
func (t *TCP) finish(n model.NodeID, box *inbox) error {
	for {
		more, err := t.writeOut(n, true)
		if err != nil {
			return err
		}
		for !box.caughtUp() {
			c, err := t.headConn(n, box)
			if err != nil {
				return err
			}
			if err := t.readStep(n, box, c); err != nil {
				return err
			}
		}
		if !more {
			return nil
		}
	}
}

// headConn returns n's oldest accepted connection, waiting up to
// waitLimit, or until Close, for one to be accepted.
func (t *TCP) headConn(n model.NodeID, box *inbox) (*inConn, error) {
	if c := box.head(); c != nil {
		return c, nil
	}
	timer := time.NewTimer(t.waitLimit)
	defer timer.Stop()
	for {
		select {
		case <-box.accepted:
		case <-t.closedCh:
			return nil, ErrClosed
		case <-timer.C:
			return nil, fmt.Errorf("transport: delivery to %v timed out with no connection (%d of %d decoded)",
				n, box.decoded.Load(), box.written.Load())
		}
		if c := box.head(); c != nil {
			return c, nil
		}
	}
}

// readStep makes one step of progress on c, an accepted connection of
// n: it decodes the whole frames c has buffered or, when there are
// none, reads once. A connection that ends — its sender evicted it and
// moved on to a new one — or whose frames do not decode is dropped.
// The caller holds box.mu.
func (t *TCP) readStep(n model.NodeID, box *inbox, c *inConn) error {
	got, err := box.decodeFrom(c)
	if err != nil {
		box.drop(c)
		return nil
	}
	if got > 0 {
		return nil
	}
	err = c.fill(t.waitLimit)
	switch {
	case err == nil:
		return nil
	case t.isClosed():
		return ErrClosed
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("transport: delivery to %v timed out (%d of %d decoded)",
			n, box.decoded.Load(), box.written.Load())
	default:
		box.drop(c)
		return nil
	}
}

// writeOut writes the head of n's coalesced queue (flushQueueLocked)
// and reports whether frames remain queued. A destination that stays
// unreachable loses its frames (LostFrames) and latches an error for
// its next Send, but does not fail the caller: the emulation degrades
// gracefully around dead peers instead of aborting the round. The only
// error returned is ErrClosed, or a reader's failed delivery wait.
func (t *TCP) writeOut(n model.NodeID, reader bool) (bool, error) {
	q := t.queues[n]
	q.mu.Lock()
	defer q.mu.Unlock()
	more, err := t.flushQueueLocked(n, q, reader)
	if IsUnreachable(err) {
		q.failed = true
		return false, nil
	}
	return more, err
}

// writeLoop is the writer: each Flush's wake-up is one writeNodes
// pass, until Close. A Drain that gets to its queue first writes it
// itself, so no Drain waits on the writer.
func (t *TCP) writeLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.wake:
		case <-t.closedCh:
			return
		}
		t.writeNodes()
	}
}

// writeNodes writes the head of every node's queue in ascending node
// order, and stops at Close.
func (t *TCP) writeNodes() {
	for _, n := range t.nodes {
		if _, err := t.writeOut(n, false); err != nil {
			return
		}
	}
}

// LostFrames counts frames accepted by Send but dropped because their
// destination stayed unreachable through a batched write. It first
// finishes the writer's pass in flight with a writeNodes pass of its
// own, which waits on each queue the writer holds, so a frame that
// pass would lose is counted.
func (t *TCP) LostFrames() int {
	t.writeNodes()
	return int(t.lostFrames.Load())
}

// Close implements Transport: it stops listeners, closes connections —
// which unblocks reads in progress — and in-flight retry backoffs and
// delivery waits, and waits for the accept and writer goroutines to
// exit.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.isClosed() {
		t.mu.Unlock()
		return nil
	}
	close(t.closedCh)
	for _, ln := range t.listeners {
		_ = ln.Close()
	}
	for _, c := range t.conns {
		_ = c.Close()
	}
	t.mu.Unlock()
	for _, box := range t.boxes {
		box.connMu.Lock()
		for _, c := range box.conns {
			_ = c.conn.Close()
		}
		box.connMu.Unlock()
	}
	t.wg.Wait()
	return nil
}
