package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"remo/internal/model"
)

// fastOpts keeps retry loops snappy in tests (batching on, the
// default).
func fastOpts() TCPOptions {
	return TCPOptions{
		DialTimeout:  200 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
		MaxRetries:   2,
		BackoffBase:  time.Millisecond,
		BackoffMax:   4 * time.Millisecond,
	}
}

// fastOptsDirect is fastOpts with a watermark of one byte: every Send
// flushes, so write errors surface synchronously.
func fastOptsDirect() TCPOptions {
	o := fastOpts()
	o.BatchBytes = 1
	return o
}

// killListener closes a node's listener out from under the transport:
// the peer is now a never-answering address.
func killListener(t *testing.T, tr *TCP, n model.NodeID) {
	t.Helper()
	tr.mu.Lock()
	ln := tr.listeners[n]
	tr.mu.Unlock()
	_ = ln.Close()
	// Wait for the accept loop to notice so no connection sneaks in.
	time.Sleep(10 * time.Millisecond)
}

func TestChaosTCPUnreachableDestinationDirect(t *testing.T) {
	tr, err := NewTCPWithOptions([]model.NodeID{1, 2}, fastOptsDirect())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	killListener(t, tr, 2)

	msg := sampleMessage()
	msg.To = 2
	err = tr.Send(msg)
	if err == nil {
		t.Fatal("Send to dead listener succeeded")
	}
	if !IsUnreachable(err) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	// Taxonomy: unreachable is not the closed or unknown-destination error.
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrUnknownDestination) {
		t.Fatalf("error taxonomy confused: %v", err)
	}
}

func TestChaosTCPUnreachableDestinationBatched(t *testing.T) {
	tr, err := NewTCPWithOptions([]model.NodeID{1, 2}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	killListener(t, tr, 2)

	msg := sampleMessage()
	msg.To = 2
	// Batched: the frame is accepted, the loss is discovered at the
	// dead peer's barrier — its Drain — and the next Send reports it.
	if err := tr.Send(msg); err != nil {
		t.Fatalf("batched Send buffered frame: %v", err)
	}
	if err := tr.Send(sampleMessage()); err != nil {
		t.Fatalf("batched Send to the collector: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush must degrade gracefully around a dead peer, got %v", err)
	}
	if got := mailboxLen(tr, model.Central); got != 1 {
		t.Fatalf("collector mailbox holds %d after Flush, want 1", got)
	}
	if got := tr.Drain(2); len(got) != 0 {
		t.Fatalf("dead peer's Drain = %+v, want nothing", got)
	}
	if lost := tr.LostFrames(); lost != 1 {
		t.Fatalf("LostFrames = %d, want 1", lost)
	}
	err = tr.Send(msg)
	if !IsUnreachable(err) {
		t.Fatalf("Send after lost batch: want ErrUnreachable, got %v", err)
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrUnknownDestination) {
		t.Fatalf("error taxonomy confused: %v", err)
	}
	// The latch clears on read: the following Send buffers again.
	if err := tr.Send(msg); err != nil {
		t.Fatalf("Send after latched error: %v", err)
	}
}

// TestChaosTCPBackgroundLostFrameLatched: a frame the writer loses after
// Flush, with no Drain of its destination, is counted by LostFrames and
// latched for the destination's next Send; the live nodes' frames
// arrive.
func TestChaosTCPBackgroundLostFrameLatched(t *testing.T) {
	tr, err := NewTCPWithOptions([]model.NodeID{1, 2, 3}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	killListener(t, tr, 2)

	for _, to := range []model.NodeID{model.Central, 1, 2, 3} {
		msg := sampleMessage()
		msg.To = to
		if err := tr.Send(msg); err != nil {
			t.Fatalf("batched Send to %v: %v", to, err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush must degrade gracefully around a dead peer, got %v", err)
	}
	if lost := tr.LostFrames(); lost != 1 {
		t.Fatalf("LostFrames = %d, want 1", lost)
	}
	msg := sampleMessage()
	msg.To = 2
	if err := tr.Send(msg); !IsUnreachable(err) {
		t.Fatalf("Send after a background loss: want ErrUnreachable, got %v", err)
	}
	waitDrain(t, tr, 1, 1)
	waitDrain(t, tr, 3, 1)
	waitDrain(t, tr, model.Central, 1)
}

func TestChaosTCPEvictAndReconnect(t *testing.T) {
	tr, err := NewTCPWithOptions([]model.NodeID{1, 2}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()

	msg := sampleMessage()
	msg.To = 2
	if err := tr.Send(msg); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	waitDrain(t, tr, 2, 1)

	// Sever the cached connection from the sender side, simulating the
	// peer dropping it mid-stream. The cache still holds the dead conn.
	tr.mu.Lock()
	conn := tr.conns[2]
	tr.mu.Unlock()
	if conn == nil {
		t.Fatal("no cached connection after successful send")
	}
	_ = conn.Close()

	// The next flush hits the dead socket, evicts it, re-dials, and
	// succeeds — possibly needing a retry attempt.
	if err := tr.Send(msg); err != nil {
		t.Fatalf("send after severed connection: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush after severed connection: %v", err)
	}
	waitDrain(t, tr, 2, 1)

	tr.mu.Lock()
	fresh := tr.conns[2]
	tr.mu.Unlock()
	if fresh == conn {
		t.Fatal("broken connection was not evicted from the cache")
	}
}

func TestChaosTCPPeerClosesMidStream(t *testing.T) {
	tr, err := NewTCPWithOptions([]model.NodeID{1, 2}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()

	msg := sampleMessage()
	msg.To = 2
	if err := tr.Send(msg); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	waitDrain(t, tr, 2, 1)

	// Restart node 2's listener on the same address: in-flight conns die
	// but the address answers again, so retries must recover.
	tr.mu.Lock()
	ln := tr.listeners[2]
	addr := tr.addrs[2]
	conn := tr.conns[2]
	tr.mu.Unlock()
	_ = ln.Close()
	_ = conn.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	tr.mu.Lock()
	tr.listeners[2] = ln2
	tr.mu.Unlock()
	tr.wg.Add(1)
	go tr.accept(tr.boxes[2], ln2)

	if err := tr.Send(msg); err != nil {
		t.Fatalf("send after listener restart: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush after listener restart: %v", err)
	}
	got := waitDrain(t, tr, 2, 1)
	if len(got) != 1 || got[0].From != msg.From {
		t.Fatalf("redelivered message = %+v", got)
	}
}

func TestChaosTCPBackoffCaps(t *testing.T) {
	tr := &TCP{opts: TCPOptions{
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		MaxRetries:  10,
	}.withDefaults()}
	prevBase := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d := tr.backoff(attempt)
		if d < tr.opts.BackoffBase {
			t.Fatalf("attempt %d: backoff %v below base", attempt, d)
		}
		// Cap plus maximum 50% jitter.
		if max := tr.opts.BackoffMax + tr.opts.BackoffMax/2; d > max {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", attempt, d, max)
		}
		// The deterministic base (jitter removed by lower-bounding over
		// trials) must be monotone non-decreasing until the cap.
		base := d - d%time.Millisecond
		if base < prevBase && prevBase < tr.opts.BackoffMax {
			t.Fatalf("attempt %d: base %v shrank from %v", attempt, base, prevBase)
		}
		prevBase = base
	}
}

func TestChaosTCPSendAfterClose(t *testing.T) {
	tr, err := NewTCPWithOptions([]model.NodeID{1}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	msg := sampleMessage()
	msg.To = 1
	err = tr.Send(msg)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if IsUnreachable(err) {
		t.Fatalf("closed transport misreported as unreachable: %v", err)
	}
}

func TestChaosTCPConcurrentSendsWithEviction(t *testing.T) {
	// A tiny watermark forces a batched write on nearly every Send, so
	// concurrent senders exercise the coalescing path's eviction and
	// retry logic mid-burst.
	opts := fastOpts()
	opts.BatchBytes = 64
	tr, err := NewTCPWithOptions([]model.NodeID{1, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()

	const senders = 8
	const perSender = 10
	errCh := make(chan error, senders)
	for s := 0; s < senders; s++ {
		go func(s int) {
			msg := sampleMessage()
			msg.To = 2
			msg.From = model.NodeID(s + 10)
			for i := 0; i < perSender; i++ {
				if err := tr.Send(msg); err != nil {
					errCh <- err
					return
				}
				if i == perSender/2 && s == 0 {
					// One sender sabotages the shared cached conn
					// mid-burst; everyone must recover via eviction.
					tr.mu.Lock()
					conn := tr.conns[2]
					tr.mu.Unlock()
					if conn != nil {
						_ = conn.Close()
					}
				}
			}
			errCh <- nil
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-errCh; err != nil {
			t.Fatalf("concurrent sender failed: %v", err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got := waitDrain(t, tr, 2, senders*perSender)
	if len(got) != senders*perSender {
		t.Fatalf("delivered %d of %d", len(got), senders*perSender)
	}
}

func TestChaosCodecBeatsRoundTrip(t *testing.T) {
	msg := Message{
		From: 7, To: model.Central,
		Beats: []Beat{{Node: 7, Round: 42}, {Node: 9, Round: 43}},
	}
	frame, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 4+EncodedSize(msg) {
		t.Fatalf("frame len %d, want %d", len(frame), 4+EncodedSize(msg))
	}
	got, err := decodePayload(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Beats) != 2 || got.Beats[0] != msg.Beats[0] || got.Beats[1] != msg.Beats[1] {
		t.Fatalf("beats = %+v", got.Beats)
	}
	if len(got.Values) != 0 {
		t.Fatalf("values = %+v", got.Values)
	}
}
