package transport

import (
	"testing"
	"time"

	"remo/internal/model"
)

// streakOf reads a destination's failure streak under its lock.
func streakOf(q *destQueue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.streak
}

func TestStreakCapsAtMax(t *testing.T) {
	q := &destQueue{}
	for i := 0; i < 3*maxStreak; i++ {
		q.bumpStreak()
	}
	if q.streak != maxStreak {
		t.Fatalf("streak = %d, want capped at %d", q.streak, maxStreak)
	}
}

// TestStreakResetsOnSuccessfulSend is the reconnect-hardening contract:
// once a write to a previously failing destination succeeds, the
// escalated backoff state resets, so the peer's next transient error
// pays base backoff instead of the outage-escalated one.
func TestStreakResetsOnSuccessfulSend(t *testing.T) {
	nodes := []model.NodeID{1, 2}
	// A watermark of 1 flushes on every Send.
	tr, err := NewTCPWithOptions(nodes, TCPOptions{BatchBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()

	// Simulate a long outage's worth of accumulated failures.
	q := tr.queues[model.NodeID(2)]
	q.mu.Lock()
	q.streak = maxStreak
	q.mu.Unlock()

	if err := tr.Send(Message{From: 1, To: 2, TreeKey: "k",
		Values: []Value{{Node: 1, Attr: 1, Round: 0, Value: 1}}}); err != nil {
		t.Fatal(err)
	}
	if got := streakOf(q); got != 0 {
		t.Fatalf("streak = %d after successful send, want 0", got)
	}
}

// TestStreakResetsOnSuccessfulFlush covers the round barrier the round
// engine uses: Flush for the collector, then the destination's Drain,
// which finishes its queue.
func TestStreakResetsOnSuccessfulFlush(t *testing.T) {
	nodes := []model.NodeID{1, 2}
	tr, err := NewTCPWithOptions(nodes, TCPOptions{
		BatchBytes:  1 << 16,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()

	q := tr.queues[model.NodeID(2)]
	q.mu.Lock()
	q.streak = 5
	q.mu.Unlock()

	for _, to := range []model.NodeID{2, model.Central} {
		if err := tr.Send(Message{From: 1, To: to, TreeKey: "k",
			Values: []Value{{Node: 1, Attr: 1, Round: 0, Value: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mailboxLen(tr, model.Central); got != 1 {
		t.Fatalf("collector mailbox holds %d after Flush, want 1", got)
	}
	if got := len(tr.Drain(2)); got != 1 {
		t.Fatalf("Drain = %d, want 1", got)
	}
	if got := streakOf(q); got != 0 {
		t.Fatalf("streak = %d after successful flush, want 0", got)
	}
}
