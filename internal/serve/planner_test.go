package serve

// Tests of the planner goroutine: a SetTasks plans beside the round
// loop, so with the planner parked inside its plan rounds go on, a
// drain still installs it, and a round's event keeps the fingerprint
// it ran under when the install lands right after it.

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"remo"
)

// gatedPlanner is a 12-node system whose Distance hook — which the
// planner calls and rounds never do — passes the returned gate.
func gatedPlanner(tb testing.TB) (*remo.System, *gate) {
	g := newGate(tb)
	sys := testSystem(tb, 12, 600)
	sys.Distance = func(a, b remo.NodeID) float64 { g.pass(); return 1 }
	return sys, g
}

// opStatus reads an operation's status through the handler.
func opStatus(tb testing.TB, h http.Handler, id string) OpView {
	tb.Helper()
	var out struct {
		Operation OpView `json:"operation"`
	}
	get(tb, h, "/v1/operations/"+id, &out)
	return out.Operation
}

// TestRoundsAdvanceWhileReplanParked: with the planner parked inside
// the plan of an admitted op, the backend keeps running rounds —
// /healthz's round moves — and the op stays applying until the plan is
// let go, then succeeds.
func TestRoundsAdvanceWhileReplanParked(t *testing.T) {
	sys, inPlan := gatedPlanner(t)
	s := bootServer(t, sys, Config{RoundEvery: time.Millisecond}, allOf(sys, 1, 2))
	h := s.Handler()

	inPlan.armed.Store(true)
	id := admit(t, h, http.MethodPost, "/v1/tasks", taskWire{Name: "more", Attrs: []int{3}, Nodes: []int{1, 2, 3, 4, 5, 6}})
	inPlan.await(t, "in the planner")
	var health struct {
		Round int `json:"round"`
	}
	get(t, h, "/healthz", &health)
	parkedAt := health.Round
	for deadline := time.Now().Add(10 * time.Second); health.Round < parkedAt+5; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("/healthz stayed at round %d with the planner parked since round %d", health.Round, parkedAt)
		}
		get(t, h, "/healthz", &health)
	}
	if op := opStatus(t, h, id); op.Status != OpApplying {
		t.Fatalf("op with its plan parked = %+v, want applying", op)
	}
	inPlan.open()
	op := settle(t, h, id)
	if op.Status != OpSucceeded || op.Replan.Round < parkedAt+5 {
		t.Fatalf("op after release = %+v; want succeeded at round ≥ %d", op, parkedAt+5)
	}
	if op.Replan.Fingerprint != s.Monitor().Fingerprint() {
		t.Fatalf("op installed %#x, the plan in force is %#x", op.Replan.Fingerprint, s.Monitor().Fingerprint())
	}
}

// TestDrainDuringParkedReplan: a drain that begins while the planner
// is parked inside one op's plan, with a second op queued behind it,
// waits for the plan, installs it, applies the queued op and leaves no
// op applying.
func TestDrainDuringParkedReplan(t *testing.T) {
	sys, inPlan := gatedPlanner(t)
	s := bootServer(t, sys, Config{RoundEvery: time.Millisecond}, allOf(sys, 1, 2))
	h := s.Handler()

	inPlan.armed.Store(true)
	first := admit(t, h, http.MethodPost, "/v1/tasks", taskWire{Name: "more", Attrs: []int{3}, Nodes: []int{1, 2, 3, 4, 5, 6}})
	inPlan.await(t, "in the planner")
	second := admit(t, h, http.MethodPost, "/v1/tasks", taskWire{Name: "most", Attrs: []int{4}, Nodes: []int{7, 8, 9}})

	drained := make(chan struct{})
	go func() { defer close(drained); s.Drain() }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with a plan still parked")
	case <-time.After(50 * time.Millisecond):
	}
	inPlan.open()
	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		t.Fatal("Drain never returned after the plan was let go")
	}
	for _, id := range []string{first, second} {
		if op := opStatus(t, h, id); op.Status != OpSucceeded {
			t.Fatalf("after drain, op %s = %+v", id, op)
		}
	}
	var list struct {
		Operations []OpView `json:"operations"`
	}
	get(t, h, "/v1/operations", &list)
	for _, op := range list.Operations {
		if !op.Status.Terminal() {
			t.Fatalf("after drain, op %s is %s", op.ID, op.Status)
		}
	}
	if enq, ok, failed := s.ins.opsEnqueued.Value(), s.ins.opsSucceeded.Value(), s.ins.opsFailed.Value(); enq != ok+failed || failed != 0 {
		t.Fatalf("enqueued %d, succeeded %d, failed %d", enq, ok, failed)
	}
}

// TestRoundEventFingerprintBeforeReplanCommit parks a SetTasks commit
// right after a round: the planner is let go from inside the round, so
// its install waits on the mutex the round holds and lands the moment
// the round releases it. The round event must still carry the
// fingerprint the round ran under, and the op the round after it.
func TestRoundEventFingerprintBeforeReplanCommit(t *testing.T) {
	sys, inPlan := gatedPlanner(t)
	var inRound atomic.Pointer[func()]
	// The test is the only thing that runs rounds.
	s := bootServer(t, sys, Config{
		RoundEvery: time.Hour,
		Monitor: remo.MonitorConfig{Source: remo.ValueFunc(func(n remo.NodeID, a remo.AttrID, round int) float64 {
			if f := inRound.Swap(nil); f != nil {
				(*f)()
			}
			return float64(round)
		})},
	}, allOf(sys, 1, 2))
	h, mon := s.Handler(), s.Monitor()
	for i := 0; i < 3; i++ {
		s.runRound()
	}
	sub := s.broker.subscribe(kindRound)
	defer s.broker.unsubscribe(sub)

	before := mon.View()
	inPlan.armed.Store(true)
	id := admit(t, h, http.MethodPost, "/v1/tasks", taskWire{Name: "more", Attrs: []int{3}, Nodes: []int{1, 2, 3, 4, 5, 6}})
	inPlan.await(t, "in the planner")
	release := func() { inPlan.open(); time.Sleep(50 * time.Millisecond) }
	inRound.Store(&release)
	s.runRound()
	op := settle(t, h, id)

	evs, _ := nextEvents(t, s.broker, sub)
	if len(evs) != 1 {
		t.Fatalf("got %d round events, want 1", len(evs))
	}
	var rw roundWire
	if err := json.Unmarshal([]byte(evs[0].Data), &rw); err != nil {
		t.Fatal(err)
	}
	if rw.Round != before.Round || rw.Fingerprint != before.Fingerprint {
		t.Fatalf("round %d event carries %#x; round %d ran under %#x", rw.Round, rw.Fingerprint, before.Round, before.Fingerprint)
	}
	if op.Status != OpSucceeded || op.Replan.Round != before.Round+1 || op.Replan.Fingerprint == before.Fingerprint ||
		op.Replan.Fingerprint != mon.Fingerprint() {
		t.Fatalf("op = %+v; want the new plan (now %#x) installed before round %d", op, mon.Fingerprint(), before.Round+1)
	}
}
