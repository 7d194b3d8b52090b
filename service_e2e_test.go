package remo_test

// End-to-end acceptance for the service tier: a serve.Server behind a
// real loopback listener, driven over HTTP. TestServiceEndToEnd walks
// the full lifecycle — admit, inspect, stream, modify (incremental
// replan), remove, drain, resume. TestServiceSoak runs concurrent
// admissions, delta and streaming readers, and a chaos collector-crash
// window for a few seconds
// (REMO_SOAK_SECONDS stretches it for the CI soak), then checks for
// goroutine leaks and dropped operation-status records.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remo"
	"remo/internal/serve"
)

// service is one booted stack: planner, server, and an HTTP frontend
// on a real loopback port.
type service struct {
	planner  *remo.Planner
	srv      *serve.Server
	hs       *http.Server
	base     string
	journal  string
	served   chan error
	shutOnce sync.Once
}

// bootService starts the service tier on 127.0.0.1:0 with fast rounds.
func bootService(t *testing.T, mcfg remo.MonitorConfig) *service {
	t.Helper()
	nodes := make([]remo.Node, 12)
	for i := range nodes {
		nodes[i] = remo.Node{
			ID:       remo.NodeID(i + 1),
			Capacity: 120,
			Attrs:    []remo.AttrID{1, 2, 3, 4},
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
	mcfg.Journal = t.TempDir()
	p := remo.NewPlanner(sys, remo.WithVerification())
	srv, err := serve.New(serve.Config{
		Planner:     p,
		Monitor:     mcfg,
		RoundEvery:  2 * time.Millisecond,
		VerifyEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		t.Fatal(err)
	}
	svc := &service{
		planner: p,
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		base:    "http://" + ln.Addr().String(),
		journal: mcfg.Journal,
		served:  make(chan error, 1),
	}
	go func() { svc.served <- svc.hs.Serve(ln) }()
	t.Cleanup(func() { svc.shutdown(t) })
	return svc
}

// shutdown drains the backend and stops the HTTP server (idempotent).
func (s *service) shutdown(t *testing.T) {
	t.Helper()
	s.shutOnce.Do(func() {
		s.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.hs.Shutdown(ctx); err != nil {
			t.Errorf("http shutdown: %v", err)
		}
		select {
		case <-s.served:
		case <-time.After(10 * time.Second):
			t.Error("http server never exited")
		}
	})
}

// httpDo issues one request and returns status and body.
func httpDo(t *testing.T, method, url, body string) (int, []byte) {
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

// admitOp issues a task mutation, expects 202, and returns the
// operation ID.
func admitOp(t *testing.T, method, url, body string) string {
	t.Helper()
	code, resp := httpDo(t, method, url, body)
	if code != http.StatusAccepted {
		t.Fatalf("%s %s: status %d: %s", method, url, code, resp)
	}
	var out struct {
		Operation serve.OpView `json:"operation"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		t.Fatal(err)
	}
	return out.Operation.ID
}

// waitOp polls an operation to a terminal state.
func waitOp(t *testing.T, base, id string) serve.OpView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		code, body := httpDo(t, http.MethodGet, base+"/v1/operations/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("op poll %s: status %d: %s", id, code, body)
		}
		var out struct {
			Operation serve.OpView `json:"operation"`
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
	return serve.OpView{}
}

// metricValue scrapes one bare metric from /metrics.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	_, body := httpDo(t, http.MethodGet, base+"/metrics", "")
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestServiceEndToEnd walks the acceptance lifecycle: admit a task,
// see it in the plan, watch values stream, modify it and observe the
// incremental-replan counters move, remove it, drain, and resume the
// sealed journal cold.
func TestServiceEndToEnd(t *testing.T) {
	svc := bootService(t, remo.MonitorConfig{Seed: 42})
	base := svc.base

	// Admit: POST is asynchronous; the operation reaches succeeded.
	id := admitOp(t, http.MethodPost, base+"/v1/tasks",
		`{"name":"e2e-cpu","attrs":[1],"nodes":[1,2,3,4]}`)
	if op := waitOp(t, base, id); op.Status != serve.OpSucceeded {
		t.Fatalf("admit op = %+v", op)
	}

	// Inspect: the task list and the plan in force cover the pairs.
	code, body := httpDo(t, http.MethodGet, base+"/v1/tasks", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"e2e-cpu"`) {
		t.Fatalf("task list: %d %s", code, body)
	}
	var plan struct {
		DemandedPairs  int `json:"demandedPairs"`
		CollectedPairs int `json:"collectedPairs"`
	}
	_, body = httpDo(t, http.MethodGet, base+"/v1/plan", "")
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.DemandedPairs != 4 || plan.CollectedPairs != 4 {
		t.Fatalf("plan = %+v, want 4/4 pairs", plan)
	}

	// Stream: an SSE subscriber sees round and value events flow.
	resp, err := http.Get(base + "/v1/stream?kinds=round,value")
	if err != nil {
		t.Fatal(err)
	}
	var seen strings.Builder
	buf := make([]byte, 4096)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		n, err := resp.Body.Read(buf)
		seen.Write(buf[:n])
		if strings.Contains(seen.String(), "event: round") &&
			strings.Contains(seen.String(), "event: value") {
			break
		}
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if !strings.Contains(seen.String(), "event: value") {
		t.Fatalf("stream never delivered value events: %q", seen.String())
	}

	// Modify: widening the task drives the scoped replanner; the diff
	// counters in /metrics move.
	replans := metricValue(t, base, "remo_replans_total")
	incremental := metricValue(t, base, "remo_replans_incremental_total")
	id = admitOp(t, http.MethodPut, base+"/v1/tasks/e2e-cpu",
		`{"name":"e2e-cpu","attrs":[1,2],"nodes":[1,2,3,4]}`)
	if op := waitOp(t, base, id); op.Status != serve.OpSucceeded {
		t.Fatalf("modify op = %+v", op)
	}
	if got := metricValue(t, base, "remo_replans_total"); got <= replans {
		t.Fatalf("remo_replans_total = %v, want > %v after modify", got, replans)
	}
	if got := metricValue(t, base, "remo_replans_incremental_total"); got <= incremental {
		t.Fatalf("remo_replans_incremental_total = %v, want > %v: the modify should be a scoped replan", got, incremental)
	}

	// Remove: the desired set empties again.
	id = admitOp(t, http.MethodDelete, base+"/v1/tasks/e2e-cpu", "")
	if op := waitOp(t, base, id); op.Status != serve.OpSucceeded {
		t.Fatalf("remove op = %+v", op)
	}
	if _, body := httpDo(t, http.MethodGet, base+"/v1/tasks", ""); !strings.Contains(string(body), `"tasks": []`) {
		t.Fatalf("task list after remove: %s", body)
	}

	// Drain seals the journal; a cold ResumeMonitor accepts it.
	svc.shutdown(t)
	mon, rr, err := svc.planner.ResumeMonitor(svc.journal, remo.MonitorConfig{Seed: 42})
	if err != nil {
		t.Fatalf("resume after drain: %v", err)
	}
	defer mon.Close()
	if !rr.PlanMatched {
		t.Fatalf("resume lost plan identity: %+v", rr)
	}
}

// churn is the soak's bulk traffic until ctx ends: each mutator cycles
// create → modify → remove on a task of its own, each reader polls
// /v1/latest?since= behind a round cursor. It returns how many requests
// finished while ctx was live and how many of those failed (transport
// error or non-2xx answer); the first failure is logged.
func churn(ctx context.Context, t *testing.T, base string, mutators, readers int) (requests, failed int64) {
	var reqs, errs atomic.Int64
	call := func(method, path, body string) []byte {
		req, err := http.NewRequestWithContext(ctx, method, base+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		var data []byte
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode/100 != 2 {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, data)
			}
		}
		if ctx.Err() != nil {
			return nil // cut off by the end of the run, not by the service
		}
		reqs.Add(1)
		if err != nil {
			if errs.Add(1) == 1 {
				t.Logf("churn: %s %s: %v", method, path, err)
			}
			return nil
		}
		return data
	}
	pause := func() {
		select {
		case <-ctx.Done():
		case <-time.After(15 * time.Millisecond):
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < mutators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("soak-churn-%d", i)
			for step := 0; ctx.Err() == nil; step++ {
				switch step % 3 {
				case 0:
					call(http.MethodPost, "/v1/tasks",
						fmt.Sprintf(`{"name":%q,"attrs":[%d],"nodes":[%d,%d]}`, name, i%4+1, i+1, i+7))
				case 1:
					call(http.MethodPut, "/v1/tasks/"+name,
						fmt.Sprintf(`{"name":%q,"attrs":[%d,%d],"nodes":[%d,%d]}`, name, i%4+1, (i+1)%4+1, i+1, i+7))
				case 2:
					call(http.MethodDelete, "/v1/tasks/"+name, "")
				}
				pause()
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for since := 0; ctx.Err() == nil; pause() {
				var rd struct {
					Round int `json:"round"`
				}
				body := call(http.MethodGet, "/v1/latest?since="+strconv.Itoa(since), "")
				if json.Unmarshal(body, &rd) == nil && rd.Round >= since {
					since = rd.Round + 1
				}
			}
		}()
	}
	wg.Wait()
	return reqs.Load(), errs.Load()
}

// TestServiceSoak hammers the service with concurrent admissions, delta
// readers and streaming readers across a chaos collector-crash window.
// The default few-second run keeps plain `go test` fast; check.sh
// stretches it via REMO_SOAK_SECONDS for the -race soak. After drain
// the goroutine count must return to baseline and every admitted
// operation must hold a terminal status record.
func TestServiceSoak(t *testing.T) {
	dur := 3 * time.Second
	if s := os.Getenv("REMO_SOAK_SECONDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad REMO_SOAK_SECONDS %q", s)
		}
		dur = time.Duration(n) * time.Second
	}
	baseline := runtime.NumGoroutine()

	// The collector crashes ~100 rounds in; the backend must auto-resume
	// it from the journal.
	svc := bootService(t, remo.MonitorConfig{
		Seed:  9,
		Chaos: &remo.ChaosConfig{CollectorCrashAt: 100, Seed: 9},
	})
	base := svc.base

	// Streaming readers: SSE subscribers that consume until cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream", nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			buf := make([]byte, 4096)
			for {
				if _, err := resp.Body.Read(buf); err != nil {
					return
				}
			}
		}()
	}

	// Direct admissions alongside the churn: record every operation ID
	// the service accepted so conservation is checkable per-record.
	// (Helpers that t.Fatal are off-limits in a goroutine, so this loop
	// reports through t.Errorf and stops.)
	var direct []string
	directDone := make(chan struct{})
	go func() {
		defer close(directDone)
		tick := dur / 16
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(tick):
			}
			body := fmt.Sprintf(`{"name":"soak-direct-%d","attrs":[%d],"nodes":[%d,%d]}`,
				i, i%4+1, i%12+1, (i+5)%12+1)
			resp, err := http.DefaultClient.Post(base+"/v1/tasks", "application/json", strings.NewReader(body))
			if err != nil {
				if ctx.Err() == nil {
					t.Errorf("direct admission: %v", err)
				}
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("direct admission: status %d: %s", resp.StatusCode, data)
				return
			}
			var out struct {
				Operation serve.OpView `json:"operation"`
			}
			if err := json.Unmarshal(data, &out); err != nil {
				t.Errorf("direct admission: %v", err)
				return
			}
			direct = append(direct, out.Operation.ID)
		}
	}()

	// The churn supplies the bulk concurrency: half mutators, half delta
	// readers.
	churnCtx, churnDone := context.WithTimeout(ctx, dur)
	requests, failed := churn(churnCtx, t, base, 4, 4)
	churnDone()
	cancel()
	readers.Wait()
	<-directDone

	t.Logf("churn: %d requests, %d failed", requests, failed)
	if requests == 0 {
		t.Fatal("soak sent no traffic")
	}
	if failed > 0 {
		t.Fatalf("soak errors = %d of %d requests", failed, requests)
	}

	// The chaos window actually hit and the backend healed it.
	if got := metricValue(t, base, "remo_collector_resumes_total"); got < 1 {
		t.Fatalf("remo_collector_resumes_total = %v, want >= 1 (chaos window missed)", got)
	}
	if got := metricValue(t, base, "remo_verify_failures_total"); got != 0 {
		t.Fatalf("remo_verify_failures_total = %v", got)
	}

	// Drain applies everything still queued; after it, the op ledger must
	// balance: every enqueued operation reached a terminal state.
	svc.srv.Drain()
	enq := metricValue(t, base, "remo_ops_enqueued_total")
	done := metricValue(t, base, "remo_ops_succeeded_total") + metricValue(t, base, "remo_ops_failed_total")
	if enq != done {
		t.Fatalf("operation records dropped: enqueued %v, terminal %v", enq, done)
	}
	// And each directly-admitted record is still retained and terminal.
	for _, id := range direct {
		if op := waitOp(t, base, id); !op.Status.Terminal() {
			t.Fatalf("operation %s not terminal after drain: %+v", id, op)
		}
	}

	// Full shutdown, then the goroutine count returns to baseline.
	svc.shutdown(t)
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	var stacks strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
	t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), stacks.String())
}
