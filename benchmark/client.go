package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator: one process, two connections. The SSE subscriber
// holds one; the mutator and the reader share the other (an HTTP/1.1
// connection serves one request at a time, so a request also waits for
// the connection — that wait is part of what it measures).

// api is the request connection shared by the mutator and the reader.
type api struct {
	base string
	hc   *http.Client
	// rec, when set, makes the mutator record client-side op spans and
	// tag its requests so server-side spans can name their parent.
	rec      *Recorder
	requests atomic.Int64
	failures atomic.Int64
}

func newAPI(base string, rec *Recorder) *api {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &api{base: base, hc: &http.Client{Transport: tr, Timeout: 15 * time.Second}, rec: rec}
}

// spanHeader carries the parent span's ID to the traced server.
const spanHeader = "X-Bench-Span"

func (a *api) close() { a.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx answer; anything
// else counts as a failed request.
func (a *api) do(method, path string, body []byte) (data []byte, err error) {
	return a.doIn(0, method, path, body)
}

// doIn is do on behalf of span parent (0 for none).
func (a *api) doIn(parent int, method, path string, body []byte) (data []byte, err error) {
	a.requests.Add(1)
	defer func() {
		if err != nil {
			a.failures.Add(1)
		}
	}()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return nil, err
	}
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(parent))
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, firstLine(data))
	}
	return data, nil
}

func firstLine(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// getJSON fetches path and decodes the answer into v.
func (a *api) getJSON(path string, v any) error {
	data, err := a.do("GET", path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// report is the part of /v1/report the benchmark reads.
type report struct {
	Rounds           int     `json:"rounds"`
	AvgPercentError  float64 `json:"avgPercentError"`
	ValuesDelivered  int     `json:"valuesDelivered"`
	ValuesSuppressed int     `json:"valuesSuppressed"`
}

// planWire is the part of /v1/plan the benchmark reads.
type planWire struct {
	Fingerprint    uint64 `json:"fingerprint"`
	CollectedPairs int    `json:"collectedPairs"`
	DemandedPairs  int    `json:"demandedPairs"`
}

// counters scrapes the unlabeled series of /metrics.
func (a *api) counters() (map[string]float64, error) {
	data, err := a.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

// pairKey packs a node-attribute pair.
func pairKey(node, attr int) uint64 { return uint64(node)<<32 | uint64(attr) }

// watch waits for the first value of any of a set of pairs.
type watch struct {
	pairs map[uint64]struct{}
	hit   chan time.Time // buffered 1; the subscriber sends at most once
	done  atomic.Bool
}

// roundRing is how many recent rounds the subscriber remembers.
const roundRing = 1 << 14

// subscriber consumes /v1/stream with a hand-rolled line scanner: at a
// hundred thousand events a second a JSON decoder would make the driver
// the bottleneck.
type subscriber struct {
	values atomic.Int64 // value events received
	rounds atomic.Int64 // round events received

	mu sync.Mutex
	// roundAt and valuesAt remember, per recent round event, when it
	// arrived and how many value events had arrived before it.
	roundAt  [roundRing]time.Time
	roundNo  [roundRing]int
	valuesAt [roundRing]int64
	// ages samples value freshness, in ms, while sampling is on.
	ages     []float64
	sampling bool

	watch atomic.Pointer[watch]
	err   error
}

// intAfter parses the integer following key in b, or -1.
func intAfter(b []byte, key string) int {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return -1
	}
	n, seen := 0, false
	for _, c := range b[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n, seen = n*10+int(c-'0'), true
	}
	if !seen {
		return -1
	}
	return n
}

// run reads the stream until it ends or ctx is done. ready is closed
// once the stream is open.
func (s *subscriber) run(ctx context.Context, base string, ready chan<- struct{}) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/stream", nil)
	if err != nil {
		s.err = err
		close(ready)
		return
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		s.err = err
		close(ready)
		return
	}
	defer resp.Body.Close()
	close(ready)
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("stream: status %d", resp.StatusCode)
		return
	}
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	kind := byte(0) // 'v' value, 'r' round, 0 other
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			if !errors.Is(err, io.EOF) && ctx.Err() == nil {
				s.err = err
			}
			return
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = 0
			if c := line[len("event: ")]; c == 'v' || c == 'r' {
				kind = c
			}
		case bytes.HasPrefix(line, []byte("data: ")):
			switch kind {
			case 'v':
				s.onValue(line)
			case 'r':
				s.onRound(intAfter(line, `"round":`))
			}
		}
	}
}

func (s *subscriber) onRound(round int) {
	now := time.Now()
	s.mu.Lock()
	i := round % roundRing
	s.roundAt[i], s.roundNo[i], s.valuesAt[i] = now, round, s.values.Load()
	s.mu.Unlock()
	s.rounds.Add(1)
}

func (s *subscriber) onValue(line []byte) {
	n := s.values.Add(1)
	if w := s.watch.Load(); w != nil && !w.done.Load() {
		key := pairKey(intAfter(line, `"node":`), intAfter(line, `"attr":`))
		if _, ok := w.pairs[key]; ok && w.done.CompareAndSwap(false, true) {
			w.hit <- time.Now()
		}
	}
	// Freshness: a value sampled in round r left its leaf when round r
	// began, which the subscriber saw as the round event r-1.
	if n%16 != 0 {
		return
	}
	round := intAfter(line, `"round":`)
	if round < 1 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if i := (round - 1) % roundRing; s.sampling && s.roundNo[i] == round-1 && !s.roundAt[i].IsZero() {
		s.ages = append(s.ages, float64(now.Sub(s.roundAt[i]))/1e6)
	}
	s.mu.Unlock()
}

// stream is an open subscription and the goroutine reading it.
type stream struct {
	sub    *subscriber
	cancel context.CancelFunc
	ended  chan struct{}
}

// openStream subscribes to base and waits for the first round event.
func openStream(base string) (*stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &stream{sub: &subscriber{}, cancel: cancel, ended: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(s.ended)
		s.sub.run(ctx, base, ready)
	}()
	<-ready
	if err := s.sub.awaitRound(s.ended, 30*time.Second); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close ends the subscription and waits for its reader.
func (s *stream) close() {
	s.cancel()
	<-s.ended
}

// awaitRound waits for the first round event, giving up when the stream
// ends or after wait.
func (s *subscriber) awaitRound(ended <-chan struct{}, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for s.rounds.Load() == 0 {
		select {
		case <-ended:
			return fmt.Errorf("stream ended before the first round: %v", s.err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no round event in %v", wait)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// setSampling switches freshness sampling on or off.
func (s *subscriber) setSampling(on bool) {
	s.mu.Lock()
	s.sampling = on
	s.mu.Unlock()
}

// valuesBefore returns how many value events preceded the round event
// of the given round, waiting up to wait for that event to arrive.
func (s *subscriber) valuesBefore(round int, wait time.Duration) (int64, bool) {
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		i := round % roundRing
		ok, n := s.roundNo[i] == round && !s.roundAt[i].IsZero(), s.valuesAt[i]
		s.mu.Unlock()
		if ok {
			return n, true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// opResult is one mutation's outcome.
type opResult struct {
	appliedMS  float64 // sent → first poll showing succeeded
	firstMS    float64 // sent → first value of a new pair; 0 if none expected
	failed     bool
	noFirstVal bool // a create or modify whose new pairs produced no value in time
}

// firstValueWait bounds how long the mutator waits for a value of a
// newly demanded pair. Coverage is partial by design, so a task whose
// new pairs the planner leaves uncollected never produces one.
const firstValueWait = time.Second

// opWire is the operation envelope of the admission API.
type opWire struct {
	Operation struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	} `json:"operation"`
}

// demandRefs tracks which pairs the current task set demands, so the
// mutator knows which pairs an op demands newly.
type demandRefs struct {
	refs  map[uint64]int
	tasks map[string][]uint64
}

// newDemandRefs starts from the spec's task set.
func newDemandRefs(in Inputs) *demandRefs {
	d := &demandRefs{refs: make(map[uint64]int), tasks: make(map[string][]uint64)}
	for _, t := range in.Spec.Tasks {
		d.apply(Op{Kind: "create", Name: t.Name, Attrs: t.Attrs, Nodes: t.Nodes})
	}
	return d
}

func taskPairs(attrs, nodes []int) []uint64 {
	out := make([]uint64, 0, len(attrs)*len(nodes))
	for _, n := range nodes {
		for _, a := range attrs {
			out = append(out, pairKey(n, a))
		}
	}
	return out
}

// apply updates the refcounts for op and returns the pairs it demands
// that nothing demanded before.
func (d *demandRefs) apply(op Op) map[uint64]struct{} {
	for _, k := range d.tasks[op.Name] {
		d.refs[k]--
	}
	delete(d.tasks, op.Name)
	fresh := make(map[uint64]struct{})
	if op.Kind != "remove" {
		pairs := taskPairs(op.Attrs, op.Nodes)
		d.tasks[op.Name] = pairs
		for _, k := range pairs {
			if d.refs[k] == 0 {
				fresh[k] = struct{}{}
			}
			d.refs[k]++
		}
	}
	return fresh
}

// mutate performs one op end to end: admit, poll until applied, and for
// a create or modify wait for the first value of a newly demanded pair.
// Latencies count from when the request is sent.
func mutate(a *api, sub *subscriber, refs *demandRefs, op Op, seq int) opResult {
	var res opResult
	from := time.Now()
	fresh := refs.apply(op)
	var w *watch
	if len(fresh) > 0 {
		w = &watch{pairs: fresh, hit: make(chan time.Time, 1)}
		sub.watch.Store(w)
		defer sub.watch.Store(nil)
	}
	// Client-side spans, recorded only on a traced run: op ⊃ admit,
	// wait.applying (202 → applying), wait.applied (→ succeeded),
	// wait.first_value.
	root, phase := 0, 0
	begin := func(name string) {
		if a.rec != nil {
			phase = a.rec.Begin(name, root, seq)
		}
	}
	end := func() {
		if a.rec != nil {
			a.rec.End(phase)
		}
	}
	if a.rec != nil {
		root = a.rec.Begin("op."+op.Kind, 0, seq)
		defer a.rec.End(root)
	}

	var (
		data []byte
		err  error
	)
	begin("admit")
	switch op.Kind {
	case "create":
		body, _ := json.Marshal(op)
		data, err = a.doIn(phase, "POST", "/v1/tasks", body)
	case "modify":
		body, _ := json.Marshal(op)
		data, err = a.doIn(phase, "PUT", "/v1/tasks/"+op.Name, body)
	default:
		data, err = a.doIn(phase, "DELETE", "/v1/tasks/"+op.Name, nil)
	}
	end()
	var ow opWire
	if err == nil {
		err = json.Unmarshal(data, &ow)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: op", op.Kind, op.Name, "not admitted:", err)
		res.failed = true
		return res
	}
	deadline := from.Add(10 * time.Second)
	begin("wait.applying")
	applying := false
	for ow.Operation.Status != "succeeded" {
		if ow.Operation.Status == "failed" || time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "benchmark: op", op.Kind, op.Name, "not applied:", ow.Operation.Status, ow.Operation.Error)
			end()
			res.failed = true
			return res
		}
		if ow.Operation.Status == "applying" && !applying {
			applying = true
			end()
			begin("wait.applied")
		}
		time.Sleep(2 * time.Millisecond)
		if err := a.getJSON("/v1/operations/"+ow.Operation.ID, &ow); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: op", op.Kind, op.Name, "poll:", err)
			end()
			res.failed = true
			return res
		}
	}
	end()
	res.appliedMS = float64(time.Since(from)) / 1e6
	if w != nil {
		begin("wait.first_value")
		select {
		case at := <-w.hit:
			res.firstMS = float64(at.Sub(from)) / 1e6
		case <-time.After(firstValueWait):
			res.noFirstVal = true
		}
		end()
	}
	return res
}

// fingerprintOps is the op count after which a run records the plan
// fingerprint: few enough that every run on a mutating workload gets
// there, so two runs of one seed can be compared.
const fingerprintOps = 12

// mutatorLoop runs the closed-loop mutator until ctx is done: one op at
// a time, the next one think after the previous became visible. It
// files results with the collector and records the plan fingerprint
// after fingerprintOps ops.
func mutatorLoop(ctx context.Context, a *api, sub *subscriber, in Inputs, think time.Duration, col *collector, out *Outcome) {
	refs := newDemandRefs(in)
	for i, op := range in.Ops {
		if !sleepUntil(ctx, time.Now().Add(think)) {
			return
		}
		res := mutate(a, sub, refs, op, i+1)
		col.mu.Lock()
		col.ops = append(col.ops, res)
		col.mu.Unlock()
		if i+1 == fingerprintOps {
			var plan planWire
			if err := a.getJSON("/v1/plan", &plan); err == nil {
				out.Fingerprint = fmt.Sprintf("%016x %d/%d", plan.Fingerprint, plan.CollectedPairs, plan.DemandedPairs)
			}
		}
	}
}

// sleepUntil sleeps until t or until ctx is done (false).
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-tm.C:
		return true
	}
}

// collector gathers what the clients observe: every op in schedule
// order, and the reads made while the window is open.
type collector struct {
	mu    sync.Mutex
	open  bool
	ops   []opResult
	reads readStats
}

func (c *collector) setOpen(open bool) {
	c.mu.Lock()
	c.open = open
	c.mu.Unlock()
}

// readStats is what the open-loop reader measured.
type readStats struct {
	latestMS []float64 // /v1/latest, from due time
	// lateMS is the generator's own lateness: how long after a read
	// could go (its due time, or the previous answer if that came later)
	// the reader issued it.
	lateMS  []float64
	bytes   int64
	stateMS float64
	bad     int // answers that failed validation
}

// latestWire is /v1/latest's answer.
type latestWire struct {
	Round  int `json:"round"`
	Values []struct {
		Node, Attr, Round int
		Value             float64
	} `json:"values"`
}

// reader is the locust-shaped read client: one full sync, then delta
// reads on a fixed schedule, every 20th followed by a series read. Each
// read is timed from when it was due. Every 10th delta is decoded and
// checked: no value older than the cursor it asked for.
func reader(ctx context.Context, a *api, every time.Duration, pair [2]int, col *collector) {
	t0 := time.Now()
	var state latestWire
	err := a.getJSON("/v1/state", &state)
	col.mu.Lock()
	col.reads.stateMS = float64(time.Since(t0)) / 1e6
	col.mu.Unlock()
	if err != nil {
		return
	}
	cursor := state.Round
	start := time.Now()
	free := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if !sleepUntil(ctx, due) {
			return
		}
		if due.After(free) {
			free = due
		}
		late := float64(time.Since(free)) / 1e6
		data, err := a.do("GET", "/v1/latest?since="+strconv.Itoa(cursor), nil)
		free = time.Now()
		if err != nil {
			continue
		}
		bad := 0
		if i%10 == 0 {
			var lw latestWire
			if err := json.Unmarshal(data, &lw); err != nil {
				bad++
			}
			for _, v := range lw.Values {
				if v.Round < cursor {
					bad++
					break
				}
			}
		}
		col.mu.Lock()
		col.reads.bad += bad
		if col.open {
			col.reads.latestMS = append(col.reads.latestMS, float64(free.Sub(due))/1e6)
			col.reads.lateMS = append(col.reads.lateMS, late)
			col.reads.bytes += int64(len(data))
		}
		col.mu.Unlock()
		if r := intAfter(data, `"round": `); r > cursor {
			cursor = r
		}
		if i%20 == 19 {
			_, _ = a.do("GET", fmt.Sprintf("/v1/series?node=%d&attr=%d&from=%d", pair[0], pair[1], max(0, cursor-64)), nil)
			free = time.Now()
		}
	}
}
