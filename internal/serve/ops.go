package serve

// The asynchronous operation state machine: admission enqueues, the
// backend applies, clients poll. Records are retained after reaching a
// terminal state so pollers never lose a 202's outcome, bounded by the
// configured retention (evicted oldest-first).

import (
	"fmt"
	"sync"
	"time"
)

// OpStatus is an operation's lifecycle state.
type OpStatus string

// Operation states: queued → applying → succeeded | failed.
const (
	OpQueued    OpStatus = "queued"
	OpApplying  OpStatus = "applying"
	OpSucceeded OpStatus = "succeeded"
	OpFailed    OpStatus = "failed"
)

// Terminal reports whether the status is final.
func (s OpStatus) Terminal() bool { return s == OpSucceeded || s == OpFailed }

// ReplanSummary is the plan diff the operation's apply produced: Round
// is the first round the new plan ran and Fingerprint its forest's.
type ReplanSummary struct {
	Round        int     `json:"round"`
	Fingerprint  uint64  `json:"fingerprint"`
	TreesKept    int     `json:"treesKept"`
	TreesRebuilt int     `json:"treesRebuilt"`
	TreesDropped int     `json:"treesDropped"`
	ReusePct     float64 `json:"reusePct"`
	Incremental  bool    `json:"incremental"`
	FellBack     bool    `json:"fellBack"`
}

// operation is one admitted mutation.
type operation struct {
	ID       string
	Kind     string // "add" | "modify" | "remove"
	TaskName string
	Created  time.Time

	mu      sync.Mutex
	status  OpStatus
	err     error
	replan  ReplanSummary
	applied time.Time
	done    chan struct{}
}

// OpView is an operation's wire representation.
type OpView struct {
	ID      string        `json:"id"`
	Kind    string        `json:"kind"`
	Task    string        `json:"task"`
	Status  OpStatus      `json:"status"`
	Error   string        `json:"error,omitempty"`
	Replan  ReplanSummary `json:"replan"`
	AgeMS   int64         `json:"ageMs"`
	ApplyMS int64         `json:"applyMs,omitempty"`
}

func (o *operation) view(now time.Time) OpView {
	o.mu.Lock()
	defer o.mu.Unlock()
	v := OpView{
		ID:     o.ID,
		Kind:   o.Kind,
		Task:   o.TaskName,
		Status: o.status,
		Replan: o.replan,
		AgeMS:  now.Sub(o.Created).Milliseconds(),
	}
	if o.err != nil {
		v.Error = o.err.Error()
	}
	if !o.applied.IsZero() {
		v.ApplyMS = o.applied.Sub(o.Created).Milliseconds()
	}
	return v
}

// Done returns a channel closed when the operation reaches a terminal
// state (tests and in-process callers; HTTP clients poll).
func (o *operation) Done() <-chan struct{} { return o.done }

// opRegistry retains operation records for status polling.
type opRegistry struct {
	mu     sync.Mutex
	seq    int
	byID   map[string]*operation
	order  []string
	retain int
}

func newOpRegistry(retain int) *opRegistry {
	return &opRegistry{byID: make(map[string]*operation), retain: retain}
}

// create registers a queued operation and returns it.
func (r *opRegistry) create(kind, taskName string) *operation {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	op := &operation{
		ID:       fmt.Sprintf("op-%d", r.seq),
		Kind:     kind,
		TaskName: taskName,
		Created:  time.Now(),
		status:   OpQueued,
		done:     make(chan struct{}),
	}
	r.byID[op.ID] = op
	r.order = append(r.order, op.ID)
	for len(r.order) > r.retain {
		evict := r.order[0]
		r.order = r.order[1:]
		delete(r.byID, evict)
	}
	return op
}

// setStatus advances an operation's state.
func (r *opRegistry) setStatus(op *operation, st OpStatus, err error, sum ReplanSummary) {
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.status.Terminal() {
		return
	}
	op.status = st
	op.err = err
	if st.Terminal() {
		op.replan = sum
		op.applied = time.Now()
		close(op.done)
	}
}

// get returns an operation by ID.
func (r *opRegistry) get(id string) (*operation, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op, ok := r.byID[id]
	return op, ok
}

// recent returns up to n retained operations, newest first.
func (r *opRegistry) recent(n int) []*operation {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.order) {
		n = len(r.order)
	}
	out := make([]*operation, 0, n)
	for i := len(r.order) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, r.byID[r.order[i]])
	}
	return out
}

// len returns the number of retained records.
func (r *opRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}
