package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
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
	// BatchBytes or when Flush runs, cutting syscalls and lock
	// acquisitions from one per message to one per destination per
	// round. 0 (or less) selects the default (32 KiB); a watermark of 1
	// flushes on every Send, surfacing write errors synchronously.
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
	mu     sync.Mutex
	buf    []byte
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

// inbox is one node's mailbox and its barrier: written counts the
// frames written to the node's connection, decoded the frames its
// readers have put into the mailbox, and arrived holds a token once
// decoded has caught up with written.
type inbox struct {
	mailbox
	written, decoded atomic.Int64
	arrived          chan struct{}
}

// wakeWaiter leaves a token for a wait on the mailbox, if none is there
// yet.
func (b *inbox) wakeWaiter() {
	select {
	case b.arrived <- struct{}{}:
	default:
	}
}

// deliveryWait bounds each wait for a mailbox to catch up with the
// frames written to it.
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
// from the writer goroutine. The barrier is per mailbox: Flush finishes
// only the collector's, then wakes the writer to write every node's
// queue while the caller absorbs, and each Drain finishes its own.
// Failures are retried with capped jittered backoff; the backoff wait
// observes Close, so closing the transport unblocks in-flight retries
// promptly. When every attempt fails the frames are dropped (counted in
// LostFrames), the error wraps ErrUnreachable, and the destination's
// failed latch makes the next Send report the dead peer.
type TCP struct {
	mu        sync.Mutex
	addrs     map[model.NodeID]string
	listeners map[model.NodeID]net.Listener
	conns     map[model.NodeID]net.Conn
	queues    map[model.NodeID]*destQueue
	// boxes are the per-node mailboxes, fixed at construction: reader
	// goroutines append to them and Drain ping-pongs their two buffers.
	boxes map[model.NodeID]*inbox
	// nodes are the destinations NewTCP was given (the collector aside),
	// ascending: the writer's order, which is the round engine's state
	// order.
	nodes    []model.NodeID
	closed   bool
	closedCh chan struct{}
	// wake holds a token when Flush has asked the writer for a pass.
	wake chan struct{}
	// waitErr is a Drain's delivery wait that gave up, kept for the next
	// Flush to return. Guarded by mu.
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
		t.boxes[n] = &inbox{arrived: make(chan struct{}, 1)}
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

// accept owns one node's listener, spawning a reader per inbound
// connection.
func (t *TCP) accept(box *inbox, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.read(box, conn)
	}
}

// read decodes frames from one connection into the node's mailbox. The
// per-connection Decoder reuses its payload buffer and interns tree
// keys, so steady-state decoding allocates only the messages' value
// slices; it reads through a buffer, so the batch Send wrote in one
// syscall is read in about one rather than two per frame. Only the
// frame that brings the mailbox level with what was written to it wakes
// the mailbox's waiter.
func (t *TCP) read(box *inbox, conn net.Conn) {
	defer t.wg.Done()
	defer func() { _ = conn.Close() }()
	dec := NewDecoder(bufio.NewReader(conn))
	for {
		msg, err := dec.Decode()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Connection torn down mid-frame during shutdown:
				// nothing to surface to the experiment.
				_ = err
			}
			return
		}
		if !t.isClosed() {
			box.mu.Lock()
			box.msgs = append(box.msgs, msg)
			box.mu.Unlock()
		}
		if box.decoded.Add(1) >= box.written.Load() {
			box.wakeWaiter()
		}
	}
}

// Send implements Transport. The frame is appended to the destination's
// coalescing buffer and written out at the size watermark, by Flush or
// the writer, or by the destination's Drain; a destination whose last
// batch was lost reports ErrUnreachable once before accepting new
// frames.
func (t *TCP) Send(msg Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	addr, ok := t.addrs[msg.To]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrUnknownDestination, msg.To)
	}
	q := t.queues[msg.To]
	t.mu.Unlock()

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
	if len(q.buf) < t.opts.BatchBytes {
		return nil
	}
	if err := t.flushQueueLocked(msg.To, addr, q); err != nil {
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

// flushQueueLocked writes the destination's coalesced buffer in one
// syscall, retrying with backoff. Exhaustion drops the buffered frames
// (counted in LostFrames) and returns an error wrapping ErrUnreachable.
// The caller holds q.mu.
func (t *TCP) flushQueueLocked(to model.NodeID, addr string, q *destQueue) error {
	if q.frames == 0 {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt <= t.opts.MaxRetries; attempt++ {
		if attempt > 0 && !t.waitBackoff(attempt+q.streak) {
			return ErrClosed
		}
		if t.isClosed() {
			return ErrClosed
		}
		conn, err := t.connTo(to, addr)
		if err != nil {
			lastErr = err
			q.bumpStreak()
			continue
		}
		if err := t.writeConn(to, conn, q.buf); err != nil {
			lastErr = err
			q.bumpStreak()
			t.evict(to, conn)
			continue
		}
		q.streak = 0
		t.boxes[to].written.Add(int64(q.frames))
		q.buf, q.frames = q.buf[:0], 0
		return nil
	}
	t.lostFrames.Add(int64(q.frames))
	q.buf, q.frames = q.buf[:0], 0
	return fmt.Errorf("flush to %v failed after %d attempts: %w (last: %v)",
		to, t.opts.MaxRetries+1, ErrUnreachable, lastErr)
}

// connTo returns the cached connection to the destination, dialing one
// (with the configured timeout) when none is cached.
func (t *TCP) connTo(to model.NodeID, addr string) (net.Conn, error) {
	t.mu.Lock()
	conn := t.conns[to]
	t.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	c, err := net.DialTimeout("tcp", addr, t.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial %v: %w", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = c.Close()
		return nil, ErrClosed
	}
	if cached := t.conns[to]; cached != nil {
		// Another sender won the race; use theirs.
		_ = c.Close()
		return cached, nil
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
// socket.
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
// gave up on since the last Flush; otherwise it finishes the collector's
// mailbox (see finish) and then wakes the writer, which writes every
// other queue while the caller absorbs what the collector received.
func (t *TCP) Flush() error {
	t.mu.Lock()
	closed, err := t.closed, t.waitErr
	t.waitErr = nil
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err != nil {
		return err
	}
	err = t.finish(model.Central)
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
	if err := t.finish(n); err != nil && !errors.Is(err, ErrClosed) {
		t.mu.Lock()
		if t.waitErr == nil {
			t.waitErr = err
		}
		t.mu.Unlock()
	}
	msgs := box.drain()
	sortMessages(msgs)
	return msgs
}

// finish writes n's queue if the writer has not, then waits until n's
// mailbox holds every frame written to n, woken by the reader that
// decodes the last one, for at most waitLimit or until Close.
func (t *TCP) finish(n model.NodeID) error {
	if err := t.writeOut(n); err != nil {
		return err
	}
	box := t.boxes[n]
	if box.decoded.Load() >= box.written.Load() {
		return nil
	}
	timer := time.NewTimer(t.waitLimit)
	defer timer.Stop()
	for box.decoded.Load() < box.written.Load() {
		select {
		case <-box.arrived:
		case <-t.closedCh:
			return ErrClosed
		case <-timer.C:
			return fmt.Errorf("transport: delivery to %v timed out (%d of %d decoded)",
				n, box.decoded.Load(), box.written.Load())
		}
	}
	// A token this call took may have been a concurrent waiter's last
	// wake-up: pass one on.
	box.wakeWaiter()
	return nil
}

// writeOut writes n's coalesced queue. A destination that stays
// unreachable loses its frames (LostFrames) and latches an error for
// its next Send, but does not fail the caller: the emulation degrades
// gracefully around dead peers instead of aborting the round. The only
// error returned is ErrClosed.
func (t *TCP) writeOut(n model.NodeID) error {
	q := t.queues[n]
	q.mu.Lock()
	defer q.mu.Unlock()
	err := t.flushQueueLocked(n, t.addrs[n], q)
	if IsUnreachable(err) {
		q.failed = true
		return nil
	}
	return err
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

// writeNodes writes every node's queue in ascending node order, and
// stops at Close.
func (t *TCP) writeNodes() {
	for _, n := range t.nodes {
		if t.writeOut(n) != nil {
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

// Close implements Transport: it stops listeners, closes connections,
// unblocks in-flight retry backoffs and delivery waits, and waits for
// the reader and writer goroutines to exit.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.closedCh)
	for _, ln := range t.listeners {
		_ = ln.Close()
	}
	for _, c := range t.conns {
		_ = c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
