//go:build !race

package transport

import (
	"bytes"
	"testing"

	"remo/internal/model"
)

// The codec's zero-alloc guarantees are the foundation of the runtime
// fast path; these regression tests pin them. The file is excluded from
// race builds because the race runtime instruments allocations.

func TestAllocsAppendEncodeZero(t *testing.T) {
	msg := sampleMessage()
	buf := make([]byte, 0, framePrefixSize+EncodedSize(msg))
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendEncode(buf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode into reused buffer allocates %.1f/op, want 0", allocs)
	}
}

func TestAllocsDecodeIntoZero(t *testing.T) {
	frame, err := Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	dec := NewDecoder(r)
	var msg Message
	// Warm up: first decode sizes the payload buffer, interns the key and
	// allocates msg's slices.
	if err := dec.DecodeInto(&msg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		if err := dec.DecodeInto(&msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeInto allocates %.1f/op, want 0", allocs)
	}
	if len(msg.Values) != 2 || msg.TreeKey != "1,2,3" {
		t.Fatalf("decoded message corrupted: %+v", msg)
	}
}

func TestAllocsSuppFrameEncodeDecodeZero(t *testing.T) {
	// Frames carrying suppression/sync sections must preserve the
	// zero-alloc discipline on both sides of the wire.
	msg := suppMessage()
	buf := make([]byte, 0, framePrefixSize+EncodedSize(msg))
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendEncode(buf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode with supp sections allocates %.1f/op, want 0", allocs)
	}
	r := bytes.NewReader(buf)
	dec := NewDecoder(r)
	var out Message
	if err := dec.DecodeInto(&out); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		r.Reset(buf)
		if err := dec.DecodeInto(&out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeInto with supp sections allocates %.1f/op, want 0", allocs)
	}
	if len(out.Suppressed) != 3 || len(out.Syncs) != 1 {
		t.Fatalf("decoded supp frame corrupted: %+v", out)
	}
}

func TestAllocsMemorySendSteadyState(t *testing.T) {
	m := NewMemory([]model.NodeID{1})
	defer func() { _ = m.Close() }()
	msg := Message{TreeKey: "k", From: 2, To: 1}
	// Warm up both ping-pong mailbox buffers.
	for i := 0; i < 2; i++ {
		for j := 0; j < 8; j++ {
			if err := m.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		m.Drain(1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 8; j++ {
			if err := m.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		m.Drain(1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Memory send/drain allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocsTCPMailboxSteadyState pins the TCP receive path's zero
// allocations per frame: once a round's mailboxes, arenas and read
// buffers have grown, Send → Flush → Drain of the same traffic decodes
// every frame in place.
func TestAllocsTCPMailboxSteadyState(t *testing.T) {
	tr, err := NewTCP([]model.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	const perRound = 16
	var msgs []Message
	for j := 0; j < perRound; j++ {
		for _, to := range []model.NodeID{model.Central, 1} {
			msg := suppMessage()
			msg.To, msg.From = to, model.NodeID(j+2)
			msgs = append(msgs, msg)
		}
	}
	round := func() {
		for _, msg := range msgs {
			if err := tr.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := len(tr.Drain(model.Central)); got != perRound {
			t.Fatalf("collector drained %d frames, want %d", got, perRound)
		}
		if got := len(tr.Drain(1)); got != perRound {
			t.Fatalf("node drained %d frames, want %d", got, perRound)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(100, round)
	if perFrame := allocs / (2 * perRound); perFrame != 0 {
		t.Fatalf("steady-state TCP send/flush/drain allocates %.2f/frame (%.1f/round), want 0", perFrame, allocs)
	}
}
