package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"remo/benchmark/rig"
)

// A traced run has three parts on the same generated inputs, all spans
// kept in memory and written to <out>/trace-<workload>.json at the end:
// T1, the real service in-process behind a timing middleware, driven by
// the same clients as the untraced run; T2, a benchmark-owned loop on
// remo.Monitor; T3, timed calls into each layer's public functions.
// Nothing outside benchmark/ is edited: spans are recorded here, around
// the calls into each layer.

// Shares of --seconds given to T1 and T2; T3 runs fixed counts.
const (
	serviceShare = 0.4
	sessionShare = 0.3
)

func runTraced(w Workload, seed int64, seconds float64, dir, outDir string) (*Outcome, error) {
	in := Generate(w, seed)
	out := &Outcome{Metrics: newMetrics()}
	rec := NewRecorder()
	opts, _, err := writeInputs(dir, in)
	if err != nil {
		return nil, err
	}
	if err := traceService(w, in, opts, seconds*serviceShare, rec, out); err != nil {
		return nil, fmt.Errorf("service trace: %w", err)
	}
	if err := os.RemoveAll(opts.Journal); err != nil {
		return nil, err
	}
	if err := traceSession(w, in, opts, seconds*sessionShare, rec, out); err != nil {
		return nil, fmt.Errorf("session trace: %w", err)
	}
	if err := traceLayers(in, opts, dir, out); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return out, rec.WriteFile(filepath.Join(outDir, "trace-"+w.Name+".json"))
}

// routeName maps a request to its handler span's name.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/tasks") && r.Method != http.MethodGet:
		return "handle.admit"
	case strings.HasPrefix(p, "/v1/operations/"):
		return "handle.op_get"
	case p == "/v1/stream":
		return "" // lives as long as the subscription
	default:
		return "handle." + strings.TrimPrefix(strings.TrimPrefix(p, "/v1/"), "/")
	}
}

// timed wraps the service handler: one span per request, parented by
// the client span the request names.
func timed(next http.Handler, rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := routeName(r)
		if name == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := rec.Begin(name, parent, 0)
		next.ServeHTTP(w, r)
		rec.End(id)
	})
}

// traceService is T1: the real serve.Server in this process, on a real
// loopback listener, its handler wrapped in the timing middleware. The
// end-to-end numbers it yields are reported under trace.* so they can
// be set against the untraced ones: the difference is what tracing and
// sharing a process with the driver cost.
func traceService(w Workload, in Inputs, opts rig.Options, seconds float64, rec *Recorder, out *Outcome) error {
	srv, err := opts.Serve()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return err
	}
	hs := &http.Server{Handler: timed(srv.Handler(), rec)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	e2e := &Outcome{Metrics: newMetrics()}
	st, err := openStream(base)
	if err == nil {
		err = measure(w, in, base, os.Getpid(), st.sub, rec, seconds, e2e)
		st.close()
	}
	srv.Drain()
	_ = hs.Shutdown(context.Background())
	<-served
	if err != nil {
		return err
	}

	out.Attempted, out.Failed = e2e.Attempted, e2e.Failed
	// e2e.Suspect is dropped: a traced run shares its process and its
	// window with two more parts, so the generator's self-checks are moot.
	for _, why := range e2e.Invalid {
		out.invalid("traced service: %s", why)
	}
	m := out.Metrics
	for _, name := range []string{"rounds_per_s", "values_per_s", "cpu_ms_per_round",
		"op_applied_ms_p50", "op_applied_ms_p90", "first_value_ms_p50", "first_value_ms_p90",
		"read_ms_p50", "read_ms_p99", "value_age_ms_p50", "value_age_ms_p99"} {
		m.set("trace."+name, e2e.Metrics.Values[name])
		if n, ok := e2e.Metrics.Samples[name]; ok {
			m.Samples["trace."+name] = n
		}
	}
	m.set("serve.latest_bytes", e2e.Metrics.Values["serve.latest_bytes"])
	m.set("serve.stream_events_per_s", e2e.Metrics.Values["gen.sse_events_per_s"])
	m.set("serve.stream_dropped", float64(srv.Registry().Counter("remo_stream_dropped_total", "").Value()))

	dur, _ := byName(rec.Spans())
	us := func(ms []float64) float64 { return 1000 * median(ms) }
	m.set("serve.admit_handle_us_p50", us(dur["handle.admit"]))
	m.set("serve.op_get_handle_us_p50", us(dur["handle.op_get"]))
	m.set("serve.latest_handle_us_p50", us(dur["handle.latest"]))
	m.set("serve.state_handle_ms", median(dur["handle.state"]))
	m.set("serve.queue_wait_ms_p50", median(dur["wait.applying"]))
	m.set("serve.apply_wait_ms_p50", median(dur["wait.applied"]))
	m.set("serve.first_value_wait_ms_p50", median(dur["wait.first_value"]))
	return nil
}
