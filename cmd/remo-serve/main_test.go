package main

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"remo/internal/journal"
	"remo/internal/model"
	"remo/internal/store"
)

// syncWriter is a race-safe strings.Builder: run() writes from the
// test goroutine while the test polls for the listening line.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

var listenRE = regexp.MustCompile(`listening on (http://\S+) `)

// startServe boots run() on a free port and returns the base URL, the
// cancel that triggers the drain, and the run error channel.
func startServe(t *testing.T, out *syncWriter, extra ...string) (string, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-nodes", "10", "-attrs", "4", "-tasks", "3",
		"-journal", t.TempDir(),
		"-round-every", "5ms",
	}, extra...)
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, args, out) }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1], cancel, errCh
		}
		select {
		case err := <-errCh:
			t.Fatalf("run exited before listening: %v\n%s", err, out.String())
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no listening line:\n%s", out.String())
	return "", nil, nil
}

// TestServeAndDrain boots the daemon, confirms the API answers, and
// drains it through context cancellation (the signal path's effect).
func TestServeAndDrain(t *testing.T) {
	out := &syncWriter{}
	base, cancel, errCh := startServe(t, out, "-verify")

	for _, path := range []string{"/healthz", "/v1/system", "/v1/plan", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("drain hung:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{"draining:", "drained: session journaled under"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

// TestServeAdmission drives one admission through the running daemon.
func TestServeAdmission(t *testing.T) {
	out := &syncWriter{}
	base, cancel, errCh := startServe(t, out)
	defer func() { cancel(); <-errCh }()

	resp, err := http.Post(base+"/v1/tasks", "application/json",
		strings.NewReader(`{"name":"probe","attrs":[1],"nodes":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("admission status %d: %s", resp.StatusCode, body)
	}
}

// TestServeRefusesUsedJournal boots on a directory, admits a task and
// drains; a second boot on the same directory must fail naming it, and
// must leave the first session's journal exactly as recovery found it
// before — journal.Create would otherwise supersede it with an empty
// checkpoint.
func TestServeRefusesUsedJournal(t *testing.T) {
	dir := t.TempDir()
	out := &syncWriter{}
	base, cancel, errCh := startServe(t, out, "-journal", dir)
	resp, err := http.Post(base+"/v1/tasks", "application/json",
		strings.NewReader(`{"name":"probe","attrs":[1],"nodes":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("admission status %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/v1/latest")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), `"values": []`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no value collected: %s", body)
		}
	}
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("first run returned %v\n%s", err, out.String())
	}
	first, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if first.State.Store.Len() == 0 {
		t.Fatalf("first session journaled no samples (round %d)", first.State.Round)
	}

	// Already cancelled: a build that does start drains at once and
	// fails the assertion below rather than serving forever.
	ctx, stop := context.WithCancel(context.Background())
	stop()
	err = run(ctx, []string{"-addr", "127.0.0.1:0", "-journal", dir}, &syncWriter{})
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "ResumeMonitor") {
		t.Fatalf("second boot on a used journal: err = %v, want a refusal naming %s and ResumeMonitor", err, dir)
	}
	again, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if again.Segment != first.Segment || again.State.Round != first.State.Round ||
		!reflect.DeepEqual(storeSeries(again.State.Store), storeSeries(first.State.Store)) {
		t.Fatalf("refused boot changed the journal: segment %d round %d → segment %d round %d",
			first.Segment, first.State.Round, again.Segment, again.State.Round)
	}
}

// storeSeries copies every retained series of st, keyed by pair.
func storeSeries(st *store.Store) map[model.Pair][]store.Sample {
	out := make(map[model.Pair][]store.Sample)
	st.EachSeries(func(p model.Pair, samples []store.Sample) {
		out[p] = append([]store.Sample(nil), samples...)
	})
	return out
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero nodes", []string{"-nodes", "0"}, "-nodes must be at least 1"},
		{"zero attrs", []string{"-attrs", "0"}, "-attrs must be at least 1"},
		{"negative tasks", []string{"-tasks", "-1"}, "-tasks must be non-negative"},
		{"zero pacing", []string{"-round-every", "0s"}, "-round-every must be positive"},
		{"zero body cap", []string{"-max-body", "0"}, "-max-body must be at least 1"},
		{"missing spec", []string{"-spec", "/nonexistent/spec.json"}, "no such file"},
	}
	for _, tc := range cases {
		var out strings.Builder
		err := run(context.Background(), tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
