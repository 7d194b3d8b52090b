package serve

// Tests of the read side: handlers answer from the Monitor's published
// view, so they never wait for a round or a replan, never tear a round
// from its fingerprint, and never hand out a cursor newer than the scan
// it came with.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remo"
)

// bootServer starts a Server over sys with the given tasks already
// planned, a fresh journal, and no periodic verification unless asked.
func bootServer(tb testing.TB, sys *remo.System, cfg Config, tasks ...remo.Task) *Server {
	tb.Helper()
	cfg.Planner = remo.NewPlanner(sys)
	for _, task := range tasks {
		cfg.Planner.MustAddTask(task)
	}
	cfg.Monitor.Journal = tb.TempDir()
	if cfg.VerifyEvery == 0 {
		cfg.VerifyEvery = -1
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Drain)
	return s
}

func allOf(sys *remo.System, attrs ...remo.AttrID) remo.Task {
	return remo.Task{Name: "base", Attrs: attrs, Nodes: sys.NodeIDs()}
}

// get serves one GET straight through the handler (no listener) and
// decodes a 200 answer into out.
func get(tb testing.TB, h http.Handler, path string, out any) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		tb.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		return
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			tb.Errorf("GET %s: %v", path, err)
		}
	}
}

// admit posts a task through the handler and returns the operation id.
func admit(tb testing.TB, h http.Handler, method, path string, tw taskWire) string {
	tb.Helper()
	body, _ := json.Marshal(tw)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(string(body))))
	var out struct {
		Operation OpView `json:"operation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusAccepted || err != nil {
		tb.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
	return out.Operation.ID
}

// settle polls an operation until it is terminal.
func settle(tb testing.TB, h http.Handler, id string) OpView {
	tb.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var out struct {
			Operation OpView `json:"operation"`
		}
		get(tb, h, "/v1/operations/"+id, &out)
		if out.Operation.Status.Terminal() {
			return out.Operation
		}
	}
	tb.Errorf("operation %s never settled", id)
	return OpView{}
}

// gate parks the first caller to pass it after park, until open.
type gate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate(tb testing.TB) *gate {
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	tb.Cleanup(g.open) // a failed test must not leave the backend parked under Drain
	return g
}

func (g *gate) pass() {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
}

// park arms the gate and returns once a caller is held in it.
func (g *gate) park(tb testing.TB, what string) {
	tb.Helper()
	g.armed.Store(true)
	g.await(tb, what)
}

// await returns once a caller is held in the gate, which the caller
// armed before starting what it waits for: arming again here would catch
// a second caller once the first had passed, and hold it forever.
func (g *gate) await(tb testing.TB, what string) {
	tb.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		tb.Fatalf("nothing parked %s", what)
	}
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// TestReadsAnswerWhileRoundParked parks the two things a live service
// has in flight — a round (a ValueSource parked inside it, holding the
// monitor's mutex) and a SetTasks (the planner parked in the system's
// Distance hook) — and requires every read endpoint to answer within
// 100 ms regardless. Before the read view each of them held that mutex,
// and reads queued on it and answered only after release.
func TestReadsAnswerWhileRoundParked(t *testing.T) {
	inRound, inReplan := newGate(t), newGate(t)
	sys := testSystem(t, 12, 600)
	sys.Distance = func(a, b remo.NodeID) float64 { inReplan.pass(); return 1 }
	s := bootServer(t, sys, Config{
		RoundEvery: time.Millisecond,
		Monitor: remo.MonitorConfig{Source: remo.ValueFunc(func(n remo.NodeID, a remo.AttrID, round int) float64 {
			inRound.pass()
			return float64(round)
		})},
	}, allOf(sys, 1, 2))
	h := s.Handler()
	for s.Monitor().Round() < 3 {
		time.Sleep(time.Millisecond)
	}

	readsAnswer := func(while string) {
		t.Helper()
		for _, path := range []string{"/healthz", "/v1/latest?since=1", "/v1/state", "/v1/series?node=1&attr=1", "/v1/plan"} {
			done := make(chan struct{})
			go func() {
				defer close(done)
				get(t, h, path, nil)
			}()
			select {
			case <-done:
			case <-time.After(100 * time.Millisecond):
				t.Errorf("GET %s did not answer within 100ms while %s", path, while)
				t.Cleanup(func() { inRound.open(); inReplan.open(); <-done })
			}
		}
	}

	inRound.park(t, "in a round")
	readsAnswer("a round is parked in its value source")
	inRound.open()

	inReplan.armed.Store(true)
	id := admit(t, h, http.MethodPost, "/v1/tasks", taskWire{Name: "more", Attrs: []int{3}, Nodes: []int{1, 2, 3, 4, 5, 6}})
	inReplan.await(t, "in a SetTasks")
	readsAnswer("a SetTasks is parked in the planner")
	inReplan.open()
	if op := settle(t, h, id); op.Status != OpSucceeded {
		t.Fatalf("admission after release = %+v", op)
	}
}

// TestDeltaCursorNeverSkips pins the /v1/latest contract — adopt "round"
// as the next since= and a value may repeat but none is skipped — on the
// case that used to break it: a read whose scan overlaps a round. The
// read is issued from inside round M's delivery (after its first value
// lands, before the rest do), so the samples that follow are observed
// after the scan; one of them belongs to a node the next SetTasks drops,
// so nothing newer will ever stand in for it. The cursor must not have
// moved past it. (Before the read view the handler took "round" from the
// monitor after the scan, behind the mutex the round holds: a read could
// not answer mid-round at all, and once it did its cursor could be a
// round or two past what it had scanned.)
func TestDeltaCursorNeverSkips(t *testing.T) {
	type latestJSON struct {
		Round  int         `json:"round"`
		Values []valueWire `json:"values"`
	}
	var hook atomic.Pointer[func(remo.Pair, int, float64)]
	sys := testSystem(t, 12, 600)
	base := allOf(sys, 1, 2)
	// The test is the only thing that runs rounds.
	s := bootServer(t, sys, Config{
		RoundEvery: time.Hour,
		Monitor: remo.MonitorConfig{OnValue: func(p remo.Pair, round int, v float64) {
			if f := hook.Load(); f != nil {
				(*f)(p, round, v)
			}
		}},
	}, base)
	h, mon := s.Handler(), s.Monitor()
	if err := mon.Run(6); err != nil {
		t.Fatal(err)
	}

	m := mon.Round()
	var midRound *latestJSON
	var late []valueWire
	onValue := func(p remo.Pair, round int, v float64) {
		if midRound != nil {
			late = append(late, valueWire{Node: int(p.Node), Attr: int(p.Attr), Round: round, Value: v})
			return
		}
		midRound = &latestJSON{Round: -1}
		done := make(chan struct{})
		go func() {
			defer close(done)
			get(t, h, fmt.Sprintf("/v1/latest?since=%d", m-1), midRound)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Errorf("a /v1/latest issued inside round %d waited for the round to end", m)
			hook.Store(nil)
			t.Cleanup(func() { <-done })
		}
	}
	hook.Store(&onValue)
	if err := mon.Run(1); err != nil {
		t.Fatal(err)
	}
	hook.Store(nil)
	if t.Failed() {
		t.FailNow()
	}
	if midRound.Round != m {
		t.Fatalf("mid-round read answered cursor %d; the scan ran inside round %d", midRound.Round, m)
	}

	// A sample of round m that landed after the scan.
	scanned := make(map[valueWire]bool)
	for _, v := range midRound.Values {
		scanned[v] = true
	}
	var missed *valueWire
	for i, v := range late {
		if v.Round == m && !scanned[v] {
			missed = &late[i]
			break
		}
	}
	if missed == nil {
		t.Fatalf("fixture: no round-%d sample landed after the scan (late: %v)", m, late)
	}

	// Its node leaves the task set: that sample stays the pair's newest.
	var rest []remo.NodeID
	for _, n := range sys.NodeIDs() {
		if int(n) != missed.Node {
			rest = append(rest, n)
		}
	}
	if _, err := mon.SetTasks([]remo.Task{{Name: base.Name, Attrs: base.Attrs, Nodes: rest}}); err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(3); err != nil {
		t.Fatal(err)
	}
	var next latestJSON
	get(t, h, fmt.Sprintf("/v1/latest?since=%d", midRound.Round), &next)
	for _, v := range next.Values {
		if v == *missed {
			return
		}
	}
	t.Fatalf("since=%d skipped %+v, observed after the scan that answered cursor %d", midRound.Round, *missed, midRound.Round)
}

// TestReadersBesideUnpacedBackend hammers every read endpoint from 8
// readers while the backend runs rounds back to back under task churn —
// with a collector crash the backend resumes from its journal, and again
// over a 4-shard tier that loses a shard. Per reader the round never
// goes back and no value is older than the cursor asked for; and every
// (round, fingerprint) any read returned is one the server published at
// that round — the fingerprint the previous round's event carried, or
// that of a plan a SetTasks installed before this round ran, as its
// operation reports it. The planner runs beside the rounds, so any
// number of installs can land between two rounds, but each is recorded:
// where /v1/state and /v1/plan agree on the round they disagree on the
// fingerprint only across such an install, and a handler that took the
// two from different instants fails. Run it under -race: readers walk
// the published plan and store while rounds go on and the planner plans.
func TestReadersBesideUnpacedBackend(t *testing.T) {
	for name, mcfg := range map[string]remo.MonitorConfig{
		"collector-crash": {Seed: 5, Chaos: &remo.ChaosConfig{CollectorCrashAt: 40}},
		"four-shards":     {Seed: 5, Shards: 4, Chaos: &remo.ChaosConfig{ShardCrashAt: map[int]int{0: 40}}},
	} {
		t.Run(name, func(t *testing.T) { hammer(t, mcfg) })
	}
}

func hammer(t *testing.T, mcfg remo.MonitorConfig) {
	const readers, minRounds, minOps = 8, 120, 6
	sys := testSystem(t, 12, 600)
	s := bootServer(t, sys, Config{RoundEvery: time.Microsecond, StreamBuffer: 1 << 14, Monitor: mcfg}, allOf(sys, 1, 2))
	h := s.Handler()

	// Ground truth: the fingerprint each round's event carried.
	events := s.broker.subscribe(kindRound)
	eventFP := map[int]uint64{-1: s.Monitor().Fingerprint()}
	var eventsDone sync.WaitGroup
	eventsDone.Add(1)
	go func() {
		defer eventsDone.Done()
		for open := true; open; {
			var evs []sseEvent
			evs, open = nextEvents(t, s.broker, events)
			for _, ev := range evs {
				var rw roundWire
				if err := json.Unmarshal([]byte(ev.Data), &rw); err != nil {
					t.Error(err)
				}
				eventFP[rw.Round] = rw.Fingerprint
			}
		}
	}()

	type seen struct {
		round int
		fp    uint64
	}
	// Ground truth: every install, as its operation reports it.
	installed := map[seen]bool{}
	stop := make(chan struct{})
	var ops atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // task churn: add, modify, remove, again
		defer wg.Done()
		for i := 0; ; i++ {
			tw := taskWire{Name: fmt.Sprintf("churn-%d", i), Attrs: []int{3}, Nodes: []int{1 + i%6, 7 + i%6}}
			steps := []func() string{
				func() string { return admit(t, h, http.MethodPost, "/v1/tasks", tw) },
				func() string { tw.Attrs = []int{3, 4}; return admit(t, h, http.MethodPut, "/v1/tasks/"+tw.Name, tw) },
				func() string { return admit(t, h, http.MethodDelete, "/v1/tasks/"+tw.Name, taskWire{}) },
			}
			for _, step := range steps {
				select {
				case <-stop:
					return
				default:
				}
				op := settle(t, h, step())
				if op.Status != OpSucceeded {
					t.Errorf("churn op = %+v", op)
					return
				}
				installed[seen{op.Replan.Round, op.Replan.Fingerprint}] = true
				ops.Add(1)
			}
		}
	}()

	observed := make([][]seen, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			last, cursor := 0, 0
			advance := func(path string, round int) {
				if round < last {
					t.Errorf("reader %d: %s answered round %d after round %d", i, path, round, last)
				}
				last = round
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				var health struct {
					Round int `json:"round"`
				}
				get(t, h, "/healthz", &health)
				advance("/healthz", health.Round)

				var latest struct {
					Round  int         `json:"round"`
					Values []valueWire `json:"values"`
				}
				path := fmt.Sprintf("/v1/latest?since=%d", cursor)
				get(t, h, path, &latest)
				advance(path, latest.Round)
				for _, v := range latest.Values {
					if v.Round < cursor {
						t.Errorf("reader %d: %s returned %+v, older than the cursor", i, path, v)
					}
				}
				cursor = latest.Round

				var state, plan struct {
					Round       int    `json:"round"`
					Fingerprint uint64 `json:"fingerprint"`
				}
				get(t, h, "/v1/state", &state)
				advance("/v1/state", state.Round)
				get(t, h, "/v1/plan", &plan)
				advance("/v1/plan", plan.Round)
				observed[i] = append(observed[i], seen{state.Round, state.Fingerprint}, seen{plan.Round, plan.Fingerprint})
				get(t, h, fmt.Sprintf("/v1/series?node=%d&attr=1", 1+i), nil)
			}
		}(i)
	}

	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if s.Monitor().Round() >= minRounds && ops.Load() >= minOps {
			break
		}
		if time.Now().After(deadline) || t.Failed() {
			t.Errorf("stopped at round %d after %d ops (want %d, %d)", s.Monitor().Round(), ops.Load(), minRounds, minOps)
			break
		}
	}
	close(stop)
	wg.Wait()
	s.Drain()
	eventsDone.Wait()
	// The backend ran rounds before the subscription; they ran under the
	// boot plan, since the churn, the only thing here that installs,
	// started after it.
	first := math.MaxInt
	for r := range eventFP {
		if r >= 0 {
			first = min(first, r)
		}
	}
	for r := 0; r < first; r++ {
		eventFP[r] = eventFP[-1]
	}

	if mcfg.Shards == 0 && s.ins.resumes.Value() == 0 {
		t.Error("the collector crash was never resumed")
	}
	if mcfg.Shards > 0 && s.Monitor().ShardLeader() == 0 {
		t.Error("shard 0 crashed and still holds the lease")
	}
	if dropped := s.ins.streamDropped.Value(); dropped != 0 {
		t.Fatalf("fixture: %d round events dropped, ground truth incomplete", dropped)
	}
	for i, list := range observed {
		for _, o := range list {
			if o.fp != eventFP[o.round-1] && !installed[o] {
				t.Fatalf("reader %d saw round %d with fingerprint %#x; published: %#x by round %d, no install at round %d",
					i, o.round, o.fp, eventFP[o.round-1], o.round-1, o.round)
			}
		}
	}
}

// TestRoundEventFingerprintMatchesPlan: the backend takes the round
// event's fingerprint from the view the round published rather than
// re-hashing the forest, so it must follow every install — a SetTasks
// and a self-heal repair — exactly as /v1/plan does; and Verify
// recomputes it from the forest to show neither is stale.
func TestRoundEventFingerprintMatchesPlan(t *testing.T) {
	type planJSON struct {
		Round       int    `json:"round"`
		Fingerprint uint64 `json:"fingerprint"`
	}
	sys := testSystem(t, 12, 600)
	check := func(t *testing.T, mcfg remo.MonitorConfig, change func(t *testing.T, s *Server)) {
		s := bootServer(t, sys, Config{RoundEvery: time.Millisecond, StreamBuffer: 1 << 14, Monitor: mcfg}, allOf(sys, 1, 2))
		before := s.Monitor().Fingerprint()
		change(t, s)
		var plan planJSON
		get(t, s.Handler(), "/v1/plan", &plan)
		if plan.Fingerprint == before {
			t.Fatalf("fixture: the forest did not change (fingerprint %#x)", before)
		}
		// Every round from plan.Round on ran under the changed forest. A
		// round that ran before it may still be in flight to the broker
		// when we subscribe, so skip to the first event at or after it.
		sub := s.broker.subscribe(kindRound)
		defer s.broker.unsubscribe(sub)
		rw := roundWire{Round: -1}
		for rw.Round < plan.Round {
			evs, open := nextEvents(t, s.broker, sub)
			if !open {
				t.Fatal("stream closed before a round event at or after the change")
			}
			for _, ev := range evs {
				if err := json.Unmarshal([]byte(ev.Data), &rw); err != nil {
					t.Fatal(err)
				}
				if rw.Round >= plan.Round {
					break
				}
			}
		}
		if rw.Fingerprint != plan.Fingerprint {
			t.Fatalf("round %d event carries %#x, /v1/plan at round %d says %#x", rw.Round, rw.Fingerprint, plan.Round, plan.Fingerprint)
		}
		if err := s.Monitor().Verify(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("set-tasks", func(t *testing.T) {
		check(t, remo.MonitorConfig{}, func(t *testing.T, s *Server) {
			id := admit(t, s.Handler(), http.MethodPost, "/v1/tasks", taskWire{Name: "more", Attrs: []int{3}, Nodes: []int{1, 2, 3, 4}})
			if op := settle(t, s.Handler(), id); op.Status != OpSucceeded {
				t.Fatalf("op = %+v", op)
			}
		})
	})
	t.Run("repair", func(t *testing.T) {
		mcfg := remo.MonitorConfig{
			Chaos:   &remo.ChaosConfig{CrashWindows: map[remo.NodeID][]remo.ChaosWindow{3: {{From: 5, To: math.MaxInt}}}},
			Failure: &remo.FailurePolicy{SuspicionRounds: 2},
		}
		check(t, mcfg, func(t *testing.T, s *Server) {
			for deadline := time.Now().Add(10 * time.Second); len(s.Monitor().Report().Repairs) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("node 3 was never repaired around")
				}
			}
		})
	})
}

// BenchmarkLatestBesideRounds sizes the read path in seconds: delta
// reads through the handler against a backend running rounds back to
// back on the memory transport (the ledger's steady-collect shape, small).
// ns/op is the mean; p99-ns is per-read timing inside the loop.
func BenchmarkLatestBesideRounds(b *testing.B) {
	sys := testSystem(b, 60, 600)
	s := bootServer(b, sys, Config{RoundEvery: time.Microsecond}, allOf(sys, 1, 2, 3, 4))
	h := s.Handler()
	for s.Monitor().Round() < 20 {
		time.Sleep(time.Millisecond)
	}
	var latest struct {
		Round int `json:"round"`
	}
	took := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range took {
		start := time.Now()
		get(b, h, fmt.Sprintf("/v1/latest?since=%d", latest.Round), &latest)
		took[i] = time.Since(start)
	}
	b.StopTimer()
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	b.ReportMetric(float64(took[len(took)*99/100]), "p99-ns")
}

// BenchmarkStreamRound sizes the stream in seconds: one real SSE
// subscriber on a loopback listener reads every event of a backend
// running rounds back to back on the memory transport. An op is one
// round received; it reports rounds/s, ns per value streamed and the
// process's allocations per round.
func BenchmarkStreamRound(b *testing.B) {
	sys := testSystem(b, 60, 600)
	s := bootServer(b, sys, Config{RoundEvery: time.Microsecond, StreamBuffer: 1 << 16}, allOf(sys, 1, 2, 3, 4))
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	// round reads through the next round event, counting values.
	round := func() (values int) {
		for {
			line, err := rd.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			switch {
			case bytes.HasPrefix(line, []byte("event: value")):
				values++
			case bytes.HasPrefix(line, []byte("event: round")):
				return values
			}
		}
	}
	for i := 0; i < 5; i++ {
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start, values := time.Now(), 0
	for i := 0; i < b.N; i++ {
		values += round()
	}
	took := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.N)/took.Seconds(), "rounds/s")
	b.ReportMetric(float64(took.Nanoseconds())/float64(max(1, values)), "ns/value")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/round")
}

// TestWriteLatestMatchesWriteJSON: /v1/latest's hand-built body is
// byte-identical to writeJSON's indented encoding — status, content type
// and body — on random values, on the float boundaries encoding/json
// switches format at, on negative zero and integers, on an empty store,
// and on the 500 answer a non-finite value gets.
func TestWriteLatestMatchesWriteJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := make([]valueWire, 200)
	for i := range random {
		random[i] = valueWire{Node: 1000 + rng.Intn(9000), Attr: rng.Intn(60), Round: rng.Intn(1 << 20),
			Value: (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))}
	}
	edges := []float64{1e-7, -1e-7, 1e-6, 1e21, -1e21, 9.99e20, math.Copysign(0, -1), 0, 1, -42, 3e15, 123456789, 0.1, math.MaxFloat64, math.SmallestNonzeroFloat64}
	var boundary []valueWire
	for i, f := range edges {
		boundary = append(boundary, valueWire{Node: i, Attr: i % 3, Round: i * 7, Value: f})
	}
	cases := map[string][]valueWire{
		"random":   random,
		"boundary": boundary,
		"empty":    {},
		"nan":      {{Node: 1, Attr: 1, Round: 1, Value: 2}, {Node: 2, Attr: 1, Round: 1, Value: math.NaN()}},
		"inf":      {{Node: 3, Attr: 2, Round: 9, Value: math.Inf(-1)}},
	}
	for name, values := range cases {
		round := 77 + len(values)
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, map[string]any{"round": round, "values": values})
		got := httptest.NewRecorder()
		writeLatest(got, round, values)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s: status %d %q, want %d %q", name, got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: body differs:\n got: %q\nwant: %q", name, got.Body.String(), want.Body.String())
		}
	}
}
