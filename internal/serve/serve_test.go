package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"remo"
	"remo/internal/metrics"
)

// testSystem is the suite's system: identical nodes observing four
// attributes under the C=10, a=1 cost model.
func testSystem(tb testing.TB, nodes int, central float64) *remo.System {
	tb.Helper()
	list := make([]remo.Node, nodes)
	for i := range list {
		list[i] = remo.Node{
			ID:       remo.NodeID(i + 1),
			Capacity: 120,
			Attrs:    []remo.AttrID{1, 2, 3, 4},
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: central,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           list,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// testServer boots a Server over a 12-node system (central capacity
// 600 → admission budget 590) with fast rounds, plus its httptest
// frontend.
func testServer(t *testing.T, central float64, opts ...remo.PlannerOption) (*Server, *httptest.Server) {
	t.Helper()
	sys := testSystem(t, 12, central)
	p := remo.NewPlanner(sys, opts...)
	s, err := New(Config{
		Planner:      p,
		Monitor:      remo.MonitorConfig{Seed: 42, Journal: t.TempDir()},
		RoundEvery:   2 * time.Millisecond,
		MaxBodyBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

// do issues a request and returns status and body.
func do(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// waitOp polls an operation until it is terminal.
func waitOp(t *testing.T, base, id string) OpView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := do(t, http.MethodGet, base+"/v1/operations/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("op poll status %d: %s", code, body)
		}
		var out struct {
			Operation OpView `json:"operation"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Operation.Status.Terminal() {
			return out.Operation
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("operation %s never reached a terminal state", id)
	return OpView{}
}

// admitTask posts a task and returns the operation id from the 202.
func admitTask(t *testing.T, base, name string, attrs, nodes []int) string {
	t.Helper()
	payload, _ := json.Marshal(taskWire{Name: name, Attrs: attrs, Nodes: nodes})
	code, body := do(t, http.MethodPost, base+"/v1/tasks", string(payload))
	if code != http.StatusAccepted {
		t.Fatalf("admit %q: status %d: %s", name, code, body)
	}
	var out struct {
		Operation OpView `json:"operation"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Operation.ID
}

// TestNewRequiresJournal: a service without a journal is refused
// before it boots a session.
func TestNewRequiresJournal(t *testing.T) {
	p := remo.NewPlanner(testSystem(t, 4, 600))
	if _, err := New(Config{Planner: p}); err == nil || !strings.Contains(err.Error(), "journal directory is required") {
		t.Fatalf("err = %v, want the journal refusal", err)
	}
}

// TestAdmissionLifecycle drives add → applied → visible in plan →
// modify (replan diff) → remove through the HTTP front door.
func TestAdmissionLifecycle(t *testing.T) {
	_, ts := testServer(t, 600)
	base := ts.URL

	id := admitTask(t, base, "cpu", []int{1}, []int{1, 2, 3, 4})
	op := waitOp(t, base, id)
	if op.Status != OpSucceeded {
		t.Fatalf("add op = %+v", op)
	}

	// The plan in force covers the admitted pairs.
	code, body := do(t, http.MethodGet, base+"/v1/plan", "")
	if code != http.StatusOK {
		t.Fatalf("plan status %d", code)
	}
	var plan struct {
		DemandedPairs  int `json:"demandedPairs"`
		CollectedPairs int `json:"collectedPairs"`
	}
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.DemandedPairs != 4 || plan.CollectedPairs != 4 {
		t.Fatalf("plan = %+v, want 4/4 pairs", plan)
	}

	// Modify widens the task; the op carries the replan diff.
	payload, _ := json.Marshal(taskWire{Name: "cpu", Attrs: []int{1, 2}, Nodes: []int{1, 2, 3, 4}})
	code, body = do(t, http.MethodPut, base+"/v1/tasks/cpu", string(payload))
	if code != http.StatusAccepted {
		t.Fatalf("modify status %d: %s", code, body)
	}
	var out struct {
		Operation OpView `json:"operation"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	op = waitOp(t, base, out.Operation.ID)
	if op.Status != OpSucceeded {
		t.Fatalf("modify op = %+v", op)
	}

	// Remove empties the desired set again.
	code, body = do(t, http.MethodDelete, base+"/v1/tasks/cpu", "")
	if code != http.StatusAccepted {
		t.Fatalf("remove status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if op = waitOp(t, base, out.Operation.ID); op.Status != OpSucceeded {
		t.Fatalf("remove op = %+v", op)
	}
	code, body = do(t, http.MethodGet, base+"/v1/tasks", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"tasks": []`) {
		t.Fatalf("task list after remove: %d %s", code, body)
	}
}

// TestValuesFlowAndState pins the read paths: /v1/state full sync,
// /v1/latest delta reads, and /v1/series windows carry collected
// values.
func TestValuesFlowAndState(t *testing.T) {
	_, ts := testServer(t, 600)
	base := ts.URL
	id := admitTask(t, base, "cpu", []int{1}, []int{1, 2, 3})
	waitOp(t, base, id)

	// Wait for values to land in the repository.
	deadline := time.Now().Add(10 * time.Second)
	var state struct {
		Round  int         `json:"round"`
		Values []valueWire `json:"values"`
	}
	for time.Now().Before(deadline) {
		_, body := do(t, http.MethodGet, base+"/v1/state", "")
		if err := json.Unmarshal(body, &state); err != nil {
			t.Fatal(err)
		}
		if len(state.Values) >= 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(state.Values) < 3 {
		t.Fatalf("full sync returned %d values, want >= 3", len(state.Values))
	}

	_, body := do(t, http.MethodGet, base+"/v1/latest?since=0", "")
	var latest struct {
		Values []valueWire `json:"values"`
	}
	if err := json.Unmarshal(body, &latest); err != nil {
		t.Fatal(err)
	}
	if len(latest.Values) < 3 {
		t.Fatalf("latest returned %d values", len(latest.Values))
	}

	v := latest.Values[0]
	_, body = do(t, http.MethodGet,
		fmt.Sprintf("%s/v1/series?node=%d&attr=%d", base, v.Node, v.Attr), "")
	var series struct {
		Samples []valueWire `json:"samples"`
	}
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatal(err)
	}
	if len(series.Samples) == 0 {
		t.Fatal("series returned no samples")
	}
}

// TestStreamDeliversEvents subscribes over SSE and expects round and
// value events.
func TestStreamDeliversEvents(t *testing.T) {
	_, ts := testServer(t, 600)
	base := ts.URL
	id := admitTask(t, base, "cpu", []int{1}, []int{1, 2})
	waitOp(t, base, id)

	resp, err := http.Get(base + "/v1/stream?kinds=round,value")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	buf := make([]byte, 8192)
	var seen strings.Builder
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n, err := resp.Body.Read(buf)
		seen.Write(buf[:n])
		if strings.Contains(seen.String(), "event: round") &&
			strings.Contains(seen.String(), "event: value") {
			return
		}
		if err != nil {
			break
		}
	}
	t.Fatalf("stream never delivered round+value events: %q", seen.String())
}

// TestTriggersAndAlerts installs an always-firing trigger and expects
// alerts to accumulate.
func TestTriggersAndAlerts(t *testing.T) {
	_, ts := testServer(t, 600)
	base := ts.URL
	id := admitTask(t, base, "cpu", []int{1}, []int{1, 2})
	waitOp(t, base, id)

	code, body := do(t, http.MethodPost, base+"/v1/triggers",
		`{"name":"hot","attr":1,"cond":"above","threshold":-1e9}`)
	if code != http.StatusCreated {
		t.Fatalf("trigger create: %d %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body = do(t, http.MethodGet, base+"/v1/alerts", "")
		var out struct {
			Alerts []alertJSON `json:"alerts"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Alerts) > 0 {
			// Cleanup path: delete the trigger.
			code, _ = do(t, http.MethodDelete, base+"/v1/triggers/hot", "")
			if code != http.StatusOK {
				t.Fatalf("trigger delete: %d", code)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("trigger never fired")
}

// TestMetricsExposition pins the /metrics surface: rounds advance and
// the admission counters move.
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, 600)
	base := ts.URL
	id := admitTask(t, base, "cpu", []int{1}, []int{1})
	waitOp(t, base, id)
	time.Sleep(20 * time.Millisecond)

	_, body := do(t, http.MethodGet, base+"/metrics", "")
	out := string(body)
	for _, want := range []string{
		"# TYPE remo_rounds_total counter",
		"remo_ops_enqueued_total 1",
		"remo_ops_succeeded_total 1",
		"# TYPE remo_admission_seconds histogram",
		"remo_replans_total 1",
		"remo_tasks 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// regionTestServer boots a Server over a 12-node, 3-region system
// (4 nodes per region, collector in r0, WAN-priced inter-region edges).
func regionTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	nodes := make([]remo.Node, 12)
	for i := range nodes {
		nodes[i] = remo.Node{
			ID:       remo.NodeID(i + 1),
			Capacity: 120,
			Attrs:    []remo.AttrID{1, 2, 3, 4},
			Region:   remo.RegionName(i / 4),
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: 600,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.CentralRegion = remo.RegionName(0)
	sys.ApplyTopology(remo.NewTopology(1, 0))
	p := remo.NewPlanner(sys)
	s, err := New(Config{
		Planner:      p,
		Monitor:      remo.MonitorConfig{Seed: 42, Journal: t.TempDir()},
		RoundEvery:   2 * time.Millisecond,
		MaxBodyBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

// TestRegionSurface pins the WAN view of the wire contract: /v1/system
// carries node region labels, /v1/state carries per-region coverage,
// and /metrics exposes the remo_region_coverage family (pinned by a
// golden file once every region converges to full coverage).
func TestRegionSurface(t *testing.T) {
	_, ts := regionTestServer(t)
	base := ts.URL
	// One task per region so every region demands pairs.
	for r := 0; r < 3; r++ {
		id := admitTask(t, base, fmt.Sprintf("task-r%d", r), []int{1, 2}, []int{4*r + 1, 4*r + 2})
		waitOp(t, base, id)
	}

	_, body := do(t, http.MethodGet, base+"/v1/system", "")
	var sysOut struct {
		Nodes []struct {
			ID     int    `json:"id"`
			Region string `json:"region"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &sysOut); err != nil {
		t.Fatal(err)
	}
	for _, n := range sysOut.Nodes {
		if want := remo.RegionName((n.ID - 1) / 4); n.Region != want {
			t.Fatalf("node %d region = %q, want %q", n.ID, n.Region, want)
		}
	}

	// Coverage needs a completed round; poll until every region reads
	// 100% in /v1/state, then pin the /metrics family with the golden.
	type regionJSON struct {
		Name     string  `json:"name"`
		Nodes    int     `json:"nodes"`
		Coverage float64 `json:"coverage"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body = do(t, http.MethodGet, base+"/v1/state", "")
		var state struct {
			Regions []regionJSON `json:"regions"`
		}
		if err := json.Unmarshal(body, &state); err != nil {
			t.Fatal(err)
		}
		full := len(state.Regions) == 3
		for _, reg := range state.Regions {
			if reg.Nodes != 4 || reg.Coverage < 100 {
				full = false
			}
		}
		if full {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("regions never converged to full coverage: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, body = do(t, http.MethodGet, base+"/metrics", "")
	var family []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.Contains(line, "remo_region_coverage") {
			family = append(family, line)
		}
	}
	checkGolden(t, "region_metrics", []byte(strings.Join(family, "\n")+"\n"))
}

// TestCollectorResumeFailureCounted corrupts the journal before a chaos
// collector crash: the backend's auto-resume cannot recover it, so every
// round's retry must show in remo_collector_resume_failures_total while
// the collector stays down.
func TestCollectorResumeFailureCounted(t *testing.T) {
	sys := testSystem(t, 8, 600)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	dir := t.TempDir()
	// An hour-long tick keeps the backend idle: the test runs the rounds.
	s, err := New(Config{
		Planner:    p,
		Monitor:    remo.MonitorConfig{Seed: 3, Journal: dir, Chaos: &remo.ChaosConfig{CollectorCrashAt: 3}},
		RoundEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	for i := 0; i < 3; i++ {
		s.runRound()
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoints to corrupt: %v", err)
	}
	for _, f := range ckpts {
		if err := os.WriteFile(f, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s.runRound() // round 3: the collector crashes and cannot resume
	s.runRound()
	if got := s.ins.resumeFailures.Value(); got != 2 {
		t.Fatalf("remo_collector_resume_failures_total = %d, want 2", got)
	}
	if got := s.ins.resumes.Value(); got != 0 {
		t.Fatalf("remo_collector_resumes_total = %d from a corrupt journal", got)
	}
	if !s.Monitor().CollectorDown() {
		t.Fatal("the collector came back from a corrupt journal")
	}
}

// TestDrainRejectsAndResumes pins drain semantics: mutations are
// rejected with the draining envelope, the journal is sealed, and a
// cold ResumeMonitor accepts it.
func TestDrainRejectsAndResumes(t *testing.T) {
	s, ts := testServer(t, 600)
	base := ts.URL
	id := admitTask(t, base, "cpu", []int{1}, []int{1, 2, 3, 4})
	waitOp(t, base, id)
	// The planner applies an op beside the rounds, so it can succeed
	// before any round runs under its plan: wait for the plan to deliver,
	// so the drained journal has collected values to hold.
	for deadline := time.Now().Add(10 * time.Second); s.Monitor().Store().Len() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the admitted task never delivered a value")
		}
	}
	fp := s.Monitor().Fingerprint()
	dir := s.Monitor().JournalDir()
	s.Drain()

	code, body := do(t, http.MethodPost, base+"/v1/tasks",
		`{"name":"late","attrs":[1],"nodes":[1]}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), codeDraining) {
		t.Fatalf("post-drain admission: %d %s", code, body)
	}
	code, _ = do(t, http.MethodGet, base+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz after drain: %d", code)
	}

	mon, rep, err := s.planner.ResumeMonitor(dir, remo.MonitorConfig{Seed: 42})
	if err != nil {
		t.Fatalf("resume after drain: %v", err)
	}
	defer mon.Close()
	if !rep.PlanMatched || mon.Fingerprint() != fp {
		t.Fatalf("resume lost plan identity: %+v", rep)
	}
	if rep.RecoveredSamples == 0 {
		t.Fatal("drained journal held no samples")
	}
}

// TestOpRetentionEviction pins the retention bound: old terminal
// records are evicted oldest-first.
func TestOpRetentionEviction(t *testing.T) {
	r := newOpRegistry(3)
	var ids []string
	for i := 0; i < 5; i++ {
		op := r.create("add", fmt.Sprintf("t%d", i))
		ids = append(ids, op.ID)
	}
	if r.len() != 3 {
		t.Fatalf("retained %d, want 3", r.len())
	}
	if _, ok := r.get(ids[0]); ok {
		t.Fatal("oldest record not evicted")
	}
	if _, ok := r.get(ids[4]); !ok {
		t.Fatal("newest record evicted")
	}
	if got := len(r.recent(10)); got != 3 {
		t.Fatalf("recent returned %d, want 3", got)
	}
}

// TestBrokerDropsOnSlowSubscriber pins the non-blocking publish: a
// full subscriber backlog drops, never blocks, and the subscriber is
// told what it lost ahead of the next events it gets.
func TestBrokerDropsOnSlowSubscriber(t *testing.T) {
	reg := metrics.NewRegistry()
	events := reg.Counter("e_total", "e")
	dropped := reg.Counter("d_total", "d")
	gauge := reg.Gauge("g", "g")
	b := newBroker(2, events, dropped, gauge)
	sub := b.subscribe(allKinds)
	var c chunk
	for i := 0; i < 5; i++ {
		c.appendRound(roundWire{Round: i})
		b.publish(&c)
	}
	if got := events.Value(); got != 2 {
		t.Fatalf("delivered = %d, want 2 (buffer)", got)
	}
	if got := dropped.Value(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	queued, _ := b.take(sub, nil)
	c.appendRound(roundWire{Round: 5})
	b.publish(&c)
	more, _ := b.take(sub, nil)
	var got []string
	for _, ev := range parseSSE(append(queued, more...)) {
		got = append(got, ev.Kind+" "+ev.Data)
	}
	want := []string{
		`round {"round":0,"fingerprint":0}`,
		`round {"round":1,"fingerprint":0}`,
		`gap {"dropped":3}`,
		`round {"round":5,"fingerprint":0}`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stream:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	b.unsubscribe(sub)
	b.close()
	if b.subscribe(allKinds) != nil {
		t.Fatal("subscribe after close succeeded")
	}
}
