// Package transport moves monitoring update messages between emulated
// nodes. Two implementations are provided: an in-process memory transport
// for fast deterministic experiments, and a TCP loopback transport that
// exercises a real network stack with a length-prefixed binary codec.
package transport

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"remo/internal/model"
)

// Value is one attribute observation in flight: attribute Attr observed
// at node Node during collection round Round.
type Value struct {
	Node  model.NodeID
	Attr  model.AttrID
	Round int
	Value float64
}

// Beat is a liveness heartbeat: node Node was provably alive at round
// Round. Heartbeats ride their own messages (no Values) straight to the
// collector and are exempt from the capacity cost model — they exist so
// the failure detector can tell "silent" from "dead".
type Beat struct {
	Node  model.NodeID
	Round int
}

// Supp identifies one suppressed or synced slot: attribute Attr
// observed at node Node during origin round Round, carried without its
// value. In Message.Suppressed it marks a value the sender withheld
// because the shared forecast was within the attribute's dead band (the
// collector imputes it from its model replica); in Message.Syncs it
// marks a value in Message.Values that is a forced ground-truth re-sync
// (both model replicas reset and re-seed from the carried value). On
// the wire each entry costs ~1–3 bytes (delta-varint coded), versus 20
// bytes for a full value.
type Supp struct {
	Node  model.NodeID
	Attr  model.AttrID
	Round int
}

// Message is one periodic update: node From forwards Values to its
// parent To within the tree identified by TreeKey (the tree's
// attribute-set key). Heartbeat messages carry Beats and no Values.
//
// Epoch is the plan epoch of the message's tree when the sender composed
// it. A tree moves to a new epoch when a plan is installed, its
// collector restarts or it moves shards, and receivers reject frames
// from superseded epochs — the mechanism that keeps pre-crash frames out
// of a restarted collector's accounting.
//
// Buffer ownership: Send borrows the message's Values/Beats/Suppressed/
// Syncs slices only for the duration of the call — the transport either
// retains the Message struct as-is (memory transport, where the receiver
// consumes it before the sender's next compose) or serializes it before
// returning (TCP), so senders may reuse their backing arrays for the
// next round once the message has been drained by its receiver.
// Messages returned by Drain, and their slices, are owned by the caller
// only until the next Drain call for the same node; callers that retain
// messages longer must copy them.
//
// Encoding canonicalizes Suppressed and Syncs: AppendEncode and
// EncodedSize sort both slices in place by (Round, Node, Attr) so the
// delta-varint wire sections are minimal and decode-order-checked.
type Message struct {
	TreeKey    string
	From       model.NodeID
	To         model.NodeID
	Epoch      uint32
	Values     []Value
	Beats      []Beat
	Suppressed []Supp
	Syncs      []Supp
}

// Transport delivers messages to per-node mailboxes.
//
// Implementations must allow concurrent Send calls and concurrent Drain
// calls for distinct nodes.
type Transport interface {
	// Send enqueues the message for its destination. See Message for the
	// buffer-ownership rules.
	Send(msg Message) error
	// Drain atomically removes and returns everything sent to node n
	// before the call, in canonical order (tree key, then sender). An
	// asynchronous transport first delivers n's own frames in flight —
	// over TCP the Drain itself reads them off n's connection: its
	// barrier is per mailbox. The returned slice is valid until the next
	// Drain call for the same node.
	Drain(n model.NodeID) []Message
	// Flush is the round barrier for the collector: it blocks until
	// every accepted Send to model.Central has reached its mailbox (over
	// TCP, Flush reads them), and may start delivering the frames bound
	// for other nodes without waiting for them; each node's Drain
	// delivers its own. It also reports a delivery failure a Drain met
	// since the last Flush. Synchronous transports return immediately.
	Flush() error
	// Close releases transport resources. No Send or Drain may follow.
	Close() error
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownDestination is returned when sending to a node the transport
// was not configured with.
var ErrUnknownDestination = errors.New("transport: unknown destination")

// ErrUnreachable is the permanent branch of the Send error taxonomy: the
// destination stayed unreachable after the transport's bounded retries.
// Callers should treat the message as lost and degrade gracefully (drop
// and keep the round going) rather than abort. Any other Send error is
// transient — retrying next round may succeed.
var ErrUnreachable = errors.New("transport: destination unreachable")

// IsUnreachable reports whether err marks a permanently unreachable
// destination (after retries), as opposed to a transient failure.
func IsUnreachable(err error) bool { return errors.Is(err, ErrUnreachable) }

// sortMessages puts drained messages into canonical order so runs are
// deterministic regardless of goroutine scheduling. The sort is stable
// because frames with equal keys (a parked outbox backlog, a delayed
// frame beside a fresh one) come from one sender, which queued them in
// its own order; an unstable sort would order them by how the senders'
// frames happened to interleave.
func sortMessages(msgs []Message) {
	slices.SortStableFunc(msgs, func(a, b Message) int {
		if c := strings.Compare(a.TreeKey, b.TreeKey); c != 0 {
			return c
		}
		return int(a.From) - int(b.From)
	})
}

// mailbox is one destination's queue. Each mailbox has its own lock, so
// concurrent senders to distinct destinations never contend, and the
// central fan-in serializes only senders targeting the collector.
// Two buffers alternate between rounds: Drain hands out one and arms
// the other, implementing the Drain ownership rule without per-round
// slice allocations.
type mailbox struct {
	mu    sync.Mutex
	msgs  []Message
	spare []Message
}

// drain hands out the queued messages (see swap).
func (b *mailbox) drain() []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.swap()
}

// swap hands out the queued messages and arms the spare buffer — the
// one the previous drain handed out, whose caller's ownership ends now —
// with its references cleared, so a drained round's payloads are not
// kept alive by the mailbox. The caller holds b.mu.
func (b *mailbox) swap() []Message {
	msgs := b.msgs
	clear(b.spare)
	b.msgs = b.spare[:0]
	b.spare = msgs
	return msgs
}

// Memory is an in-process transport backed by per-destination
// mailboxes. The destination map is immutable after construction, so
// Send and Drain touch only the destination's own lock.
type Memory struct {
	boxes  map[model.NodeID]*mailbox
	closed atomic.Bool
}

var _ Transport = (*Memory)(nil)

// NewMemory returns a memory transport with mailboxes for the given
// nodes (the central collector is always included).
func NewMemory(nodes []model.NodeID) *Memory {
	m := &Memory{boxes: make(map[model.NodeID]*mailbox, len(nodes)+1)}
	m.boxes[model.Central] = &mailbox{}
	for _, n := range nodes {
		if _, dup := m.boxes[n]; !dup {
			m.boxes[n] = &mailbox{}
		}
	}
	return m
}

// Send implements Transport.
func (m *Memory) Send(msg Message) error {
	if m.closed.Load() {
		return ErrClosed
	}
	box, ok := m.boxes[msg.To]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownDestination, msg.To)
	}
	box.mu.Lock()
	if m.closed.Load() {
		box.mu.Unlock()
		return ErrClosed
	}
	box.msgs = append(box.msgs, msg)
	box.mu.Unlock()
	return nil
}

// Drain implements Transport. The returned slice is reused by the
// next-but-one Drain of the same node; callers own it only until their
// next Drain call.
func (m *Memory) Drain(n model.NodeID) []Message {
	box, ok := m.boxes[n]
	if !ok {
		return nil
	}
	msgs := box.drain()
	sortMessages(msgs)
	return msgs
}

// Flush implements Transport; memory delivery is synchronous, so it is
// a no-op.
func (m *Memory) Flush() error { return nil }

// Close implements Transport.
func (m *Memory) Close() error {
	m.closed.Store(true)
	return nil
}
