package transport

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"remo/internal/model"
)

func sampleMessage() Message {
	return Message{
		TreeKey: "1,2,3",
		From:    model.NodeID(4),
		To:      model.Central,
		Values: []Value{
			{Node: 4, Attr: 1, Round: 7, Value: 3.25},
			{Node: 5, Attr: 2, Round: 6, Value: -17},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	msg := sampleMessage()
	frame, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 4+EncodedSize(msg) {
		t.Fatalf("frame size %d, want %d", len(frame), 4+EncodedSize(msg))
	}
	got, err := Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("round trip: got %+v, want %+v", got, msg)
	}
}

func TestCodecEmptyValues(t *testing.T) {
	msg := Message{TreeKey: "", From: 1, To: 2}
	frame, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got.TreeKey != "" || got.From != 1 || got.To != 2 || got.Values != nil {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestCodecRejectsTruncated(t *testing.T) {
	frame, err := Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{2, 5, len(frame) - 3} {
		if _, err := Decode(bytes.NewReader(frame[:cut])); err == nil {
			t.Errorf("Decode(frame[:%d]) succeeded", cut)
		}
	}
}

func TestCodecRejectsOversizedFrame(t *testing.T) {
	var hdr [4]byte
	hdr[0] = 0xFF
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	if _, err := Decode(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame error = %v", err)
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		msg := Message{
			TreeKey: "k",
			From:    model.NodeID(rng.Intn(1000)),
			To:      model.NodeID(rng.Intn(1000)),
		}
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			msg.Values = append(msg.Values, Value{
				Node:  model.NodeID(rng.Intn(500)),
				Attr:  model.AttrID(rng.Intn(100)),
				Round: rng.Intn(1 << 20),
				Value: math.Round(rng.NormFloat64()*1e6) / 1e3,
			})
		}
		frame, err := Encode(msg)
		if err != nil {
			return false
		}
		got, err := Decode(bytes.NewReader(frame))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryTransport(t *testing.T) {
	m := NewMemory([]model.NodeID{1, 2})
	defer func() { _ = m.Close() }()

	if err := m.Send(Message{TreeKey: "a", From: 1, To: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(Message{TreeKey: "a", From: 2, To: model.Central}); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(Message{To: 99}); !errors.Is(err, ErrUnknownDestination) {
		t.Fatalf("unknown destination error = %v", err)
	}

	got := m.Drain(2)
	if len(got) != 1 || got[0].From != 1 {
		t.Fatalf("Drain(2) = %+v", got)
	}
	if again := m.Drain(2); len(again) != 0 {
		t.Fatalf("second Drain = %+v", again)
	}
	if central := m.Drain(model.Central); len(central) != 1 {
		t.Fatalf("Drain(central) = %+v", central)
	}
}

func TestMemoryDrainOrderCanonical(t *testing.T) {
	m := NewMemory([]model.NodeID{1})
	defer func() { _ = m.Close() }()
	_ = m.Send(Message{TreeKey: "b", From: 9, To: 1})
	_ = m.Send(Message{TreeKey: "a", From: 5, To: 1})
	_ = m.Send(Message{TreeKey: "a", From: 2, To: 1})
	got := m.Drain(1)
	if got[0].TreeKey != "a" || got[0].From != 2 || got[2].TreeKey != "b" {
		t.Fatalf("Drain order = %+v", got)
	}
}

func TestMemoryClosed(t *testing.T) {
	m := NewMemory(nil)
	_ = m.Close()
	if err := m.Send(Message{To: model.Central}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close error = %v", err)
	}
}

func TestMemoryConcurrentSends(t *testing.T) {
	m := NewMemory([]model.NodeID{1})
	defer func() { _ = m.Close() }()
	var wg sync.WaitGroup
	const senders, each = 8, 50
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = m.Send(Message{TreeKey: "k", From: model.NodeID(s + 2), To: 1})
			}
		}(s)
	}
	wg.Wait()
	if got := len(m.Drain(1)); got != senders*each {
		t.Fatalf("drained %d, want %d", got, senders*each)
	}
}

func TestTCPTransportDelivers(t *testing.T) {
	tr, err := NewTCP([]model.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()

	msg := sampleMessage()
	msg.To = 2
	if err := tr.Send(msg); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got := waitDrain(t, tr, 2, 1)
	if !reflect.DeepEqual(got[0], msg) {
		t.Fatalf("delivered %+v, want %+v", got[0], msg)
	}
}

func TestTCPMultipleMessagesOneConnection(t *testing.T) {
	tr, err := NewTCP([]model.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	const n = 20
	for i := 0; i < n; i++ {
		if err := tr.Send(Message{TreeKey: "k", From: model.NodeID(i + 10), To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got := waitDrain(t, tr, 1, n)
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
}

func TestTCPUnknownDestination(t *testing.T) {
	tr, err := NewTCP(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if err := tr.Send(Message{To: 42}); !errors.Is(err, ErrUnknownDestination) {
		t.Fatalf("error = %v", err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	tr, err := NewTCP([]model.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Message{To: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close error = %v", err)
	}
}

// waitDrain drains node's mailbox once, which waits for the node's
// frames in flight, and wants exactly n messages.
func waitDrain(t *testing.T, tr *TCP, node model.NodeID, n int) []Message {
	t.Helper()
	got := tr.Drain(node)
	if len(got) != n {
		t.Fatalf("Drain(%v) returned %d messages, want %d", node, len(got), n)
	}
	return got
}

// mailboxLen reads how many frames sit in n's mailbox without draining
// it.
func mailboxLen(tr *TCP, n model.NodeID) int {
	box := tr.boxes[n]
	box.mu.Lock()
	defer box.mu.Unlock()
	return len(box.msgs)
}

func TestMemoryFlushNoOp(t *testing.T) {
	m := NewMemory(nil)
	defer func() { _ = m.Close() }()
	if err := m.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
}

// TestTCPFlushWaitsForDelivery: Flush is the collector's barrier and
// Drain a node's own. After Flush every frame sent to the collector is
// in its mailbox, and a node's Drain returns every frame sent to it —
// no polling needed for either.
func TestTCPFlushWaitsForDelivery(t *testing.T) {
	tr, err := NewTCP([]model.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	for i := 0; i < 25; i++ {
		for _, to := range []model.NodeID{model.Central, 1} {
			if err := tr.Send(Message{TreeKey: "k", From: model.NodeID(i + 2), To: to}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mailboxLen(tr, model.Central); got != 25 {
		t.Fatalf("collector mailbox holds %d after Flush, want 25", got)
	}
	if got := len(tr.Drain(model.Central)); got != 25 {
		t.Fatalf("Drain(collector) = %d, want 25", got)
	}
	if got := len(tr.Drain(1)); got != 25 {
		t.Fatalf("Drain = %d, want 25", got)
	}
}

// TestTCPDrainWithoutFlush: a node's Drain writes out its own queue, so
// it returns every frame sent to the node although no Flush ran.
func TestTCPDrainWithoutFlush(t *testing.T) {
	tr, err := NewTCP([]model.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	var sent []Message
	for i := 0; i < 6; i++ {
		msg := Message{TreeKey: "k", From: model.NodeID(6 - i), To: 1,
			Values: []Value{{Node: model.NodeID(6 - i), Attr: 1, Round: i, Value: float64(i)}}}
		if err := tr.Send(msg); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg)
	}
	got := tr.Drain(1)
	sortMessages(sent)
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("Drain without Flush returned %+v, want %+v", got, sent)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush after the Drain: %v", err)
	}
}

// TestTCPCloseUnblocksDrain: a Drain waiting for a frame that will
// never arrive returns as soon as Close runs, and Close leaves none of
// the transport's goroutines running.
func TestTCPCloseUnblocksDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	tr, err := NewTCP([]model.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Message{TreeKey: "k", From: 1, To: 2}); err != nil {
		t.Fatal(err)
	}
	// Node 2's connection is accepted and read.
	waitDrain(t, tr, 2, 1)
	tr.boxes[1].written.Add(1) // a frame written that no reader will deliver
	drained := make(chan struct{})
	go func() { defer close(drained); tr.Drain(1) }()
	select {
	case <-drained:
		t.Fatal("Drain returned before its frame arrived")
	case <-time.After(20 * time.Millisecond):
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain still waiting 2s after Close")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before NewTCP", n, before)
	}
}

// TestTCPDrainTimeoutSurfacesFromFlush: a Drain whose wait gives up
// returns what its mailbox holds, and the next Flush reports the
// failure, so the round fails as a timed-out barrier always did; the
// Flush after that starts clean.
func TestTCPDrainTimeoutSurfacesFromFlush(t *testing.T) {
	tr, err := NewTCP([]model.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	tr.waitLimit = 20 * time.Millisecond
	tr.boxes[1].written.Add(1) // a frame written that no reader will deliver
	start := time.Now()
	if got := tr.Drain(1); len(got) != 0 {
		t.Fatalf("Drain = %+v, want nothing", got)
	}
	if waited := time.Since(start); waited < tr.waitLimit || waited > 2*time.Second {
		t.Fatalf("Drain waited %v, want about %v", waited, tr.waitLimit)
	}
	err = tr.Flush()
	if err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after a timed-out Drain = %v, want the timeout", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want nil", err)
	}
}

func TestTCPFlushAfterCloseErrors(t *testing.T) {
	tr, err := NewTCP(nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Close()
	if err := tr.Flush(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after close = %v", err)
	}
}

// TestTCPFlushReturnsClosedWhenCloseRaces: a Flush or Drain waiting
// for deliveries returns as soon as Close runs, not at its 10 s timeout
// — both when a frame can never arrive and when Close races frames in
// flight.
func TestTCPFlushReturnsClosedWhenCloseRaces(t *testing.T) {
	flushAndClose := func(t *testing.T, tr *TCP) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- tr.Flush() }()
		time.Sleep(time.Millisecond)
		_ = tr.Close()
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("Flush = %v, want nil or ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Flush still waiting 2s after Close")
		}
	}
	t.Run("undeliverable", func(t *testing.T) {
		tr, err := NewTCP([]model.NodeID{1})
		if err != nil {
			t.Fatal(err)
		}
		// Frames written that no reader will deliver: one to the
		// collector, which Flush waits for, and one to node 1, which its
		// Drain waits for.
		tr.boxes[model.Central].written.Add(1)
		tr.boxes[1].written.Add(1)
		drained := make(chan struct{})
		go func() { defer close(drained); tr.Drain(1) }()
		flushAndClose(t, tr)
		select {
		case <-drained:
		case <-time.After(2 * time.Second):
			t.Fatal("Drain still waiting 2s after Close")
		}
	})
	t.Run("in-flight", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			tr, err := NewTCP([]model.NodeID{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 200; j++ {
				_ = tr.Send(Message{TreeKey: "k", From: model.NodeID(j + 3), To: model.NodeID(1 + j%2)})
			}
			flushAndClose(t, tr)
		}
	})
}

// TestTCPFlushDeliversFramesLargerThanReadBuffer: frames several times
// the reader's buffer, batched between small ones, decode intact.
func TestTCPFlushDeliversFramesLargerThanReadBuffer(t *testing.T) {
	tr, err := NewTCP([]model.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	var sent []Message
	for i, n := range []int{1, 1000, 0, 3000, 2, 205} {
		msg := Message{TreeKey: "big", From: model.NodeID(i + 2), To: 1}
		for v := 0; v < n; v++ {
			msg.Values = append(msg.Values, Value{Node: model.NodeID(v), Attr: 1, Round: i, Value: float64(v) / 3})
		}
		if err := tr.Send(msg); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got := tr.Drain(1)
	sortMessages(sent)
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("delivered %d frames, not the %d sent", len(got), len(sent))
	}
}

// TestTCPFlushBesideConcurrentSenders: senders write to every
// destination while two goroutines flush; once the senders stop, one
// more Flush leaves every frame in a mailbox.
func TestTCPFlushBesideConcurrentSenders(t *testing.T) {
	nodes := []model.NodeID{1, 2, 3}
	tr, err := NewTCPWithOptions(nodes, TCPOptions{BatchBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	const senders, each = 4, 300
	var sending, flushing sync.WaitGroup
	stop := make(chan struct{})
	for f := 0; f < 2; f++ {
		flushing.Add(1)
		go func() {
			defer flushing.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tr.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for s := 0; s < senders; s++ {
		sending.Add(1)
		go func(s int) {
			defer sending.Done()
			for i := 0; i < each; i++ {
				msg := Message{TreeKey: "k", From: model.NodeID(10 + s), To: nodes[i%len(nodes)]}
				for v := 0; v < i%40; v++ {
					msg.Values = append(msg.Values, Value{Node: model.NodeID(s), Attr: 1, Round: i, Value: float64(v)})
				}
				if err := tr.Send(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	sending.Wait()
	close(stop)
	flushing.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range nodes {
		total += len(tr.Drain(n))
	}
	if total != senders*each {
		t.Fatalf("mailboxes hold %d frames after Flush, want %d", total, senders*each)
	}
}

// TestTCPMailboxReuse pins the TCP mailboxes' ping-pong at steady
// state: each Drain hands out the buffer the next-but-one Drain hands
// out again, so a round does not regrow its mailboxes, and a buffer
// whose ownership has ended holds no references to drained payloads.
// A second phase drains while another goroutine sends, flushes and
// wakes the writer, which writes the node's queue beside the Drain.
func TestTCPMailboxReuse(t *testing.T) {
	tr, err := NewTCP([]model.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	const perRound = 8
	msg := Message{TreeKey: "k", From: 2, To: 1, Values: []Value{{Node: 2, Attr: 1, Value: 1}}}
	var drained [][]Message
	for round := 0; round < 6; round++ {
		for j := 0; j < perRound; j++ {
			if err := tr.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		got := tr.Drain(1)
		if len(got) != perRound || got[0].TreeKey != "k" || len(got[0].Values) != 1 {
			t.Fatalf("round %d drained %+v, want %d frames", round, got, perRound)
		}
		if round > 0 {
			prev := drained[round-1]
			if prev[0].TreeKey != "" || prev[0].Values != nil {
				t.Fatalf("round %d: the buffer handed out last round still holds %+v", round, prev[0])
			}
		}
		if round >= 2 {
			same := &got[0] == &drained[round-2][0]
			other := &got[0] == &drained[round-1][0]
			if !same || other {
				t.Fatalf("round %d: Drain did not ping-pong its two buffers", round)
			}
		}
		drained = append(drained, got)
	}

	const frames = 400
	done := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := tr.Send(msg); err != nil {
				done <- err
				return
			}
			if i%7 == 0 {
				if err := tr.Flush(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- tr.Flush()
	}()
	total := 0
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
			runtime.Gosched()
		}
		for _, m := range tr.Drain(1) {
			if m.TreeKey != "k" || len(m.Values) != 1 {
				t.Fatalf("drained a corrupted frame %+v", m)
			}
			total++
		}
	}
	if total != frames {
		t.Fatalf("drained %d frames, want %d", total, frames)
	}
}

// TestTCPLargeBatchNeverWaitsOnItsOwnRead: a round whose batch to one
// destination is larger than a loopback socket holds unread — about
// 4 MiB to the collector, and 4 MiB plus a single 6 MiB frame to a node
// — completes with no write timeout and no lost frame, at the default
// watermark and at one that flushes on every Send. Nothing reads a
// connection but its destination's Drain (or Flush), so a write that
// left more than a chunk unread before that read, or wrote the large
// frame whole, would block until its deadline and lose the batch.
func TestTCPLargeBatchNeverWaitsOnItsOwnRead(t *testing.T) {
	values := func(n int) []Value {
		vs := make([]Value, n)
		for v := range vs {
			vs[v] = Value{Node: model.NodeID(v), Attr: 1, Round: n, Value: float64(v)}
		}
		return vs
	}
	small, large := values(100), values(300_000)
	var toCentral, toNode []Message
	for i := 0; i < 2000; i++ {
		toCentral = append(toCentral, Message{TreeKey: "big", From: model.NodeID(i + 2), To: model.Central, Values: small})
		toNode = append(toNode, Message{TreeKey: "big", From: model.NodeID(i + 2), To: 1, Values: small})
		if i == 1000 {
			toNode = append(toNode, Message{TreeKey: "big", From: 1, To: 1, Values: large})
		}
	}
	same := func(got, want []Message) bool {
		return len(got) == len(want) && slices.EqualFunc(got, want, func(g, w Message) bool {
			return g.TreeKey == w.TreeKey && g.From == w.From && g.To == w.To && slices.Equal(g.Values, w.Values)
		})
	}
	for _, batch := range []int{0, 1} {
		tr, err := NewTCPWithOptions([]model.NodeID{1}, TCPOptions{
			WriteTimeout: 200 * time.Millisecond,
			MaxRetries:   -1,
			BatchBytes:   batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, msg := range toNode {
			if i < len(toCentral) {
				if err := tr.Send(toCentral[i]); err != nil {
					t.Fatalf("watermark %d: Send to the collector: %v", batch, err)
				}
			}
			if err := tr.Send(msg); err != nil {
				t.Fatalf("watermark %d: Send to the node: %v", batch, err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatalf("watermark %d: Flush: %v", batch, err)
		}
		if got := tr.Drain(model.Central); !same(got, toCentral) {
			t.Fatalf("watermark %d: the collector drained %d frames, not the %d sent", batch, len(got), len(toCentral))
		}
		got := tr.Drain(1)
		want := slices.Clone(toNode)
		sortMessages(want)
		if !same(got, want) {
			t.Fatalf("watermark %d: the node drained %d frames, not the %d sent", batch, len(got), len(want))
		}
		if lost := tr.LostFrames(); lost != 0 {
			t.Fatalf("watermark %d: %d frames lost", batch, lost)
		}
		if err := tr.Flush(); err != nil {
			t.Fatalf("watermark %d: Flush after the drains: %v", batch, err)
		}
		_ = tr.Close()
	}
}
