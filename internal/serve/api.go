package serve

// The HTTP frontend: synchronous validation, asynchronous application.
// Every mutation handler validates against the desired task set, checks
// the admission budget, mutates the desired state, and answers 202 with
// an operation to poll. Reads load the Monitor's published view once
// and answer from it — round, fingerprint, plan and store of one
// instant — without waiting for the round or replan in flight. Errors
// share one envelope: {"error":{"code","message"}}.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"remo"
	"remo/internal/model"
	"remo/internal/store"
)

// apiError is an error envelope before serialization.
type apiError struct {
	Status  int
	Code    string
	Message string
}

// Error codes of the wire contract (pinned by the golden files).
const (
	codeBadRequest       = "bad_request"
	codeInvalidTask      = "invalid_task"
	codeUnknownNode      = "unknown_node"
	codeUnknownAttr      = "unknown_attr"
	codeDuplicateTask    = "duplicate_task"
	codeUnknownTask      = "unknown_task"
	codeInfeasible       = "infeasible"
	codeBodyTooLarge     = "body_too_large"
	codeNotFound         = "not_found"
	codeDraining         = "draining"
	codeOverloaded       = "overloaded"
	codeBadTrigger       = "bad_trigger"
	codeDuplicateTrigger = "duplicate_trigger"
	codeInternal         = "internal"
)

func errDraining() *apiError {
	return &apiError{http.StatusServiceUnavailable, codeDraining, "server is draining"}
}

// writeJSON answers with a JSON body. It encodes before it writes the
// status, so a value JSON cannot carry (a non-finite float) answers 500
// with the error envelope instead of the status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeErr(w, &apiError{http.StatusInternalServerError, codeInternal, "encode response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeErr answers with the error envelope.
func writeErr(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, map[string]any{
		"error": map[string]string{"code": e.Code, "message": e.Message},
	})
}

// Wire types. IDs travel as plain ints.
type taskWire struct {
	Name  string `json:"name"`
	Attrs []int  `json:"attrs"`
	Nodes []int  `json:"nodes"`
}

func (tw taskWire) task() remo.Task {
	t := remo.Task{Name: tw.Name}
	for _, a := range tw.Attrs {
		t.Attrs = append(t.Attrs, remo.AttrID(a))
	}
	for _, n := range tw.Nodes {
		t.Nodes = append(t.Nodes, remo.NodeID(n))
	}
	return t
}

func wireTask(t remo.Task) taskWire {
	tw := taskWire{Name: t.Name, Attrs: []int{}, Nodes: []int{}}
	for _, a := range t.Attrs {
		tw.Attrs = append(tw.Attrs, int(a))
	}
	for _, n := range t.Nodes {
		tw.Nodes = append(tw.Nodes, int(n))
	}
	return tw
}

type valueWire struct {
	Node  int     `json:"node"`
	Attr  int     `json:"attr"`
	Round int     `json:"round"`
	Value float64 `json:"value"`
}

type roundWire struct {
	Round       int    `json:"round"`
	Fingerprint uint64 `json:"fingerprint"`
}

type alertJSON struct {
	Trigger string  `json:"trigger"`
	Node    int     `json:"node"`
	Attr    int     `json:"attr"`
	Round   int     `json:"round"`
	Value   float64 `json:"value"`
}

func alertWire(a remo.Alert) alertJSON {
	return alertJSON{
		Trigger: a.Trigger,
		Node:    int(a.Pair.Node),
		Attr:    int(a.Pair.Attr),
		Round:   a.Round,
		Value:   a.Value,
	}
}

type triggerWire struct {
	Name      string  `json:"name"`
	Attr      int     `json:"attr"`
	Node      int     `json:"node"`
	Cond      string  `json:"cond"`
	Threshold float64 `json:"threshold"`
	Cooldown  int     `json:"cooldown"`
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/system", s.handleSystem)
	mux.HandleFunc("GET /v1/tasks", s.handleTaskList)
	mux.HandleFunc("POST /v1/tasks", s.handleTaskCreate)
	mux.HandleFunc("GET /v1/tasks/{name}", s.handleTaskGet)
	mux.HandleFunc("PUT /v1/tasks/{name}", s.handleTaskUpdate)
	mux.HandleFunc("DELETE /v1/tasks/{name}", s.handleTaskDelete)
	mux.HandleFunc("GET /v1/operations", s.handleOpList)
	mux.HandleFunc("GET /v1/operations/{id}", s.handleOpGet)
	mux.HandleFunc("GET /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/report", s.handleReport)
	mux.HandleFunc("GET /v1/state", s.handleState)
	mux.HandleFunc("GET /v1/series", s.handleSeries)
	mux.HandleFunc("GET /v1/latest", s.handleLatest)
	mux.HandleFunc("GET /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/triggers", s.handleTriggerList)
	mux.HandleFunc("POST /v1/triggers", s.handleTriggerCreate)
	mux.HandleFunc("DELETE /v1/triggers/{name}", s.handleTriggerDelete)
	mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, &apiError{http.StatusNotFound, codeNotFound, "no such endpoint: " + r.URL.Path})
	})
	return s.instrument(mux)
}

// statusWriter captures the response status for the request counters
// while passing Flush through for streaming handlers.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument counts requests and error responses.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ins.httpRequests.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		if sw.status >= 400 {
			s.ins.httpErrors.Inc()
		}
	})
}

// decodeBody parses a bounded JSON request body.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return &apiError{http.StatusBadRequest, codeBadRequest, "malformed JSON: " + err.Error()}
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"round":    s.mon.Round(),
		"draining": s.Draining(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Report-derived gauges refresh at scrape time (registration is
	// idempotent, so re-fetching the instruments is cheap).
	rep := s.mon.Report()
	set := func(name, help string, v float64) { s.reg.Gauge(name, help).Set(v) }
	set("remo_report_rounds", "rounds observed by the collector", float64(rep.Rounds))
	set("remo_report_percent_collected", "coverage percent", rep.PercentCollected)
	set("remo_report_avg_percent_error", "average percent error of delivered values", rep.AvgPercentError)
	set("remo_report_messages_sent", "overlay messages sent", float64(rep.MessagesSent))
	set("remo_report_values_delivered", "values delivered to the collector", float64(rep.ValuesDelivered))
	set("remo_report_values_suppressed", "values suppressed by forecasting", float64(rep.ValuesSuppressed))
	set("remo_report_failures_detected", "node failures declared", float64(rep.FailuresDetected))
	set("remo_report_repairs", "self-healing repairs applied", float64(len(rep.Repairs)))
	set("remo_report_collector_restarts", "collector resumes", float64(rep.CollectorRestarts))
	s.mu.Lock()
	set("remo_tasks", "tasks in the desired set", float64(len(s.desired)))
	set("remo_pairs", "distinct observable pairs demanded", float64(s.pairCount))
	s.mu.Unlock()
	set("remo_ops_retained", "operation-status records retained", float64(s.ops.len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.Fprint(w)
}

func (s *Server) handleSystem(w http.ResponseWriter, r *http.Request) {
	sys := s.planner.System()
	type nodeWire struct {
		ID       int     `json:"id"`
		Capacity float64 `json:"capacity"`
		Attrs    []int   `json:"attrs"`
		Region   string  `json:"region,omitempty"`
	}
	nodes := make([]nodeWire, 0, len(sys.Nodes))
	for _, n := range sys.Nodes {
		nw := nodeWire{ID: int(n.ID), Capacity: n.Capacity, Attrs: []int{}, Region: n.Region}
		for _, a := range n.Attrs {
			nw.Attrs = append(nw.Attrs, int(a))
		}
		nodes = append(nodes, nw)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{
		"centralCapacity": sys.CentralCapacity,
		"cost":            map[string]float64{"perMessage": sys.Cost.PerMessage, "perValue": sys.Cost.PerValue},
		"admissionBudget": s.planner.AdmissionBudget(),
		"nodes":           nodes,
	})
}

// refTaskLocked counts the task's observable pairs into the admission
// refcounts. unrefTaskLocked is its exact inverse; the two are always
// called symmetrically so duplicate pairs inside a task stay
// consistent.
func (s *Server) refTaskLocked(t remo.Task) {
	for _, pr := range t.Pairs() {
		if !s.obs[pr.Node][pr.Attr] {
			continue
		}
		if s.pairRefs[pr]++; s.pairRefs[pr] == 1 {
			s.pairCount++
		}
	}
}

func (s *Server) unrefTaskLocked(t remo.Task) {
	for _, pr := range t.Pairs() {
		if !s.obs[pr.Node][pr.Attr] {
			continue
		}
		if s.pairRefs[pr]--; s.pairRefs[pr] == 0 {
			s.pairCount--
			delete(s.pairRefs, pr)
		}
	}
}

// validateTaskLocked enforces the strict wire contract: the task
// manager silently drops unobservable pairs, the service rejects them.
func (s *Server) validateTaskLocked(t remo.Task) *apiError {
	if err := t.Validate(); err != nil {
		return &apiError{http.StatusUnprocessableEntity, codeInvalidTask, err.Error()}
	}
	for _, n := range t.Nodes {
		if _, ok := s.obs[n]; !ok {
			return &apiError{http.StatusUnprocessableEntity, codeUnknownNode,
				fmt.Sprintf("node %d is not part of the system", n)}
		}
	}
	for _, a := range t.Attrs {
		if !s.attrs[a] {
			return &apiError{http.StatusUnprocessableEntity, codeUnknownAttr,
				fmt.Sprintf("attribute %d is not observed by any node", a)}
		}
	}
	return nil
}

// admit validates a mutation, applies it to the desired set, and
// enqueues the operation — the synchronous half of the state machine.
// t is nil for removals.
func (s *Server) admit(kind, name string, t *remo.Task) (*operation, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining()
	}
	prev, exists := s.desired[name]
	switch kind {
	case "add":
		if exists {
			return nil, &apiError{http.StatusConflict, codeDuplicateTask,
				fmt.Sprintf("task %q already exists", name)}
		}
	case "modify", "remove":
		if !exists {
			return nil, &apiError{http.StatusNotFound, codeUnknownTask,
				fmt.Sprintf("task %q does not exist", name)}
		}
	}
	if t != nil {
		if aerr := s.validateTaskLocked(*t); aerr != nil {
			return nil, aerr
		}
	}

	// Apply to the refcounts, check the budget, roll back on rejection.
	if exists {
		s.unrefTaskLocked(prev)
	}
	if t != nil {
		s.refTaskLocked(*t)
	}
	if err := s.planner.CheckAdmission(s.pairCount); err != nil {
		if t != nil {
			s.unrefTaskLocked(*t)
		}
		if exists {
			s.refTaskLocked(prev)
		}
		return nil, &apiError{http.StatusUnprocessableEntity, codeInfeasible, err.Error()}
	}
	if t != nil {
		s.desired[name] = t.Clone()
	} else {
		delete(s.desired, name)
	}

	op := s.ops.create(kind, name)
	select {
	case s.queue <- op:
	default:
		// Queue full: undo the desired mutation so state and record agree.
		if t != nil {
			s.unrefTaskLocked(*t)
			delete(s.desired, name)
		}
		if exists {
			s.refTaskLocked(prev)
			s.desired[name] = prev
		}
		s.ops.setStatus(op, OpFailed, errors.New("admission queue full"), ReplanSummary{})
		return nil, &apiError{http.StatusServiceUnavailable, codeOverloaded, "admission queue full"}
	}
	return op, nil
}

// respondAdmission is the shared tail of the three mutation handlers.
func (s *Server) respondAdmission(w http.ResponseWriter, start time.Time, op *operation, aerr *apiError) {
	s.ins.admission.Observe(time.Since(start).Seconds())
	if aerr != nil {
		s.ins.opsRejected.Inc()
		writeErr(w, aerr)
		return
	}
	s.ins.opsEnqueued.Inc()
	writeJSON(w, http.StatusAccepted, map[string]any{"operation": op.view(time.Now())})
}

func (s *Server) handleTaskCreate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var tw taskWire
	if aerr := s.decodeBody(w, r, &tw); aerr != nil {
		s.ins.opsRejected.Inc()
		writeErr(w, aerr)
		return
	}
	t := tw.task()
	op, aerr := s.admit("add", t.Name, &t)
	s.respondAdmission(w, start, op, aerr)
}

func (s *Server) handleTaskUpdate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	name := r.PathValue("name")
	var tw taskWire
	if aerr := s.decodeBody(w, r, &tw); aerr != nil {
		s.ins.opsRejected.Inc()
		writeErr(w, aerr)
		return
	}
	if tw.Name == "" {
		tw.Name = name
	}
	if tw.Name != name {
		s.ins.opsRejected.Inc()
		writeErr(w, &apiError{http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("body task name %q does not match path %q", tw.Name, name)})
		return
	}
	t := tw.task()
	op, aerr := s.admit("modify", name, &t)
	s.respondAdmission(w, start, op, aerr)
}

func (s *Server) handleTaskDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	op, aerr := s.admit("remove", r.PathValue("name"), nil)
	s.respondAdmission(w, start, op, aerr)
}

func (s *Server) handleTaskList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]taskWire, 0, len(s.desired))
	for _, t := range s.desired {
		out = append(out, wireTask(t))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"tasks": out})
}

func (s *Server) handleTaskGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	t, ok := s.desired[name]
	s.mu.Unlock()
	if !ok {
		writeErr(w, &apiError{http.StatusNotFound, codeUnknownTask,
			fmt.Sprintf("task %q does not exist", name)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"task": wireTask(t)})
}

func (s *Server) handleOpGet(w http.ResponseWriter, r *http.Request) {
	op, ok := s.ops.get(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiError{http.StatusNotFound, codeNotFound,
			fmt.Sprintf("operation %q not retained", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"operation": op.view(time.Now())})
}

func (s *Server) handleOpList(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n > 0 {
			limit = n
		}
	}
	ops := s.ops.recent(limit)
	now := time.Now()
	out := make([]OpView, 0, len(ops))
	for _, op := range ops {
		out = append(out, op.view(now))
	}
	writeJSON(w, http.StatusOK, map[string]any{"operations": out})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	v := s.mon.View()
	plan := v.Plan
	type treeWire struct {
		Root   int   `json:"root"`
		Size   int   `json:"size"`
		Height int   `json:"height"`
		Attrs  []int `json:"attrs"`
	}
	trees := make([]treeWire, 0)
	for _, ti := range plan.Trees() {
		tw := treeWire{Root: int(ti.Root), Size: ti.Size, Height: ti.Height, Attrs: []int{}}
		for _, a := range ti.Attrs {
			tw.Attrs = append(tw.Attrs, int(a))
		}
		trees = append(trees, tw)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"fingerprint":      v.Fingerprint,
		"round":            v.Round,
		"demandedPairs":    plan.DemandedPairs(),
		"collectedPairs":   plan.CollectedPairs(),
		"percentCollected": plan.PercentCollected(),
		"totalCost":        plan.TotalCost(),
		"centralUsage":     plan.CentralUsage(),
		"trees":            trees,
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep := s.mon.Report()
	writeJSON(w, http.StatusOK, map[string]any{
		"rounds":            rep.Rounds,
		"demandedPairs":     rep.DemandedPairs,
		"coveredPairs":      rep.CoveredPairs,
		"percentCollected":  rep.PercentCollected,
		"avgPercentError":   rep.AvgPercentError,
		"avgStaleness":      rep.AvgStaleness,
		"messagesSent":      rep.MessagesSent,
		"messagesDropped":   rep.MessagesDropped,
		"valuesDelivered":   rep.ValuesDelivered,
		"valuesObserved":    rep.ValuesObserved,
		"valuesSuppressed":  rep.ValuesSuppressed,
		"failuresDetected":  rep.FailuresDetected,
		"nodesRecovered":    rep.NodesRecovered,
		"repairs":           len(rep.Repairs),
		"replans":           len(rep.Replans),
		"collectorRestarts": rep.CollectorRestarts,
		"shards":            rep.Shards,
	})
}

// handleState is the connect-time full sync: desired tasks, the plan in
// force, and the latest value of every collected pair.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tasks := make([]taskWire, 0, len(s.desired))
	for _, t := range s.desired {
		tasks = append(tasks, wireTask(t))
	}
	s.mu.Unlock()
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Name < tasks[j].Name })
	v := s.mon.View()
	resp := map[string]any{
		"round":       v.Round,
		"fingerprint": v.Fingerprint,
		"tasks":       tasks,
		"values":      latestValues(v.Store, math.MinInt),
	}
	// Region-labeled systems carry the WAN view: each region's label,
	// monitoring-node count, and live coverage percentage.
	sys := s.planner.System()
	if names := sys.Regions(); len(names) > 1 {
		type regionWire struct {
			Name     string  `json:"name"`
			Nodes    int     `json:"nodes"`
			Coverage float64 `json:"coverage"`
		}
		cov := s.mon.RegionCoverage()
		byRegion := sys.RegionNodes()
		regions := make([]regionWire, 0, len(names))
		for _, name := range names {
			regions = append(regions, regionWire{
				Name: name, Nodes: len(byRegion[name]), Coverage: cov[name],
			})
		}
		resp["regions"] = regions
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, key string, def int) (int, error) {
	q := r.URL.Query().Get(key)
	if q == "" {
		return def, nil
	}
	return strconv.Atoi(q)
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	node, err1 := queryInt(r, "node", -1)
	attr, err2 := queryInt(r, "attr", -1)
	from, err3 := queryInt(r, "from", 0)
	to, err4 := queryInt(r, "to", int(^uint(0)>>1))
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || node < 0 || attr < 0 {
		writeErr(w, &apiError{http.StatusBadRequest, codeBadRequest,
			"series requires integer node= and attr= (from=/to= optional)"})
		return
	}
	pr := model.Pair{Node: model.NodeID(node), Attr: model.AttrID(attr)}
	samples := make([]valueWire, 0)
	if repo := s.mon.Store(); repo != nil {
		for _, smp := range repo.Window(pr, from, to) {
			samples = append(samples, valueWire{Node: node, Attr: attr, Round: smp.Round, Value: smp.Value})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"samples": samples})
}

// latestValues is the store scan behind /v1/state and /v1/latest: every
// pair's newest sample at or after since, in pair order.
func latestValues(repo *remo.Store, since int) []valueWire {
	if repo == nil {
		return []valueWire{}
	}
	latest := repo.LatestSince(since)
	values := make([]valueWire, len(latest))
	for i, ps := range latest {
		values[i] = valueWire{Node: int(ps.Pair.Node), Attr: int(ps.Pair.Attr), Round: ps.Round, Value: ps.Value}
	}
	return values
}

// handleLatest is the delta read: every pair's newest sample at or
// after ?since= (default: everything). The "round" it answers is the
// cursor for the next read and comes from the view loaded before the
// scan, so it is never newer than what the scan saw: a value at or after
// it may be returned again by the next read, but none is skipped.
func (s *Server) handleLatest(w http.ResponseWriter, r *http.Request) {
	since, err := queryInt(r, "since", 0)
	if err != nil {
		writeErr(w, &apiError{http.StatusBadRequest, codeBadRequest, "since= must be an integer"})
		return
	}
	v := s.mon.View()
	writeJSON(w, http.StatusOK, map[string]any{"round": v.Round, "values": latestValues(v.Store, since)})
}

// handleStream serves SSE: value, alert, and round events, filterable
// with ?kinds=value,alert,round, plus a gap event after any it lost.
// Whatever the broker queued since the last write goes out as one Write
// and one Flush.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var kinds []string
	if q := r.URL.Query().Get("kinds"); q != "" {
		kinds = strings.Split(q, ",")
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, &apiError{http.StatusInternalServerError, codeBadRequest, "streaming unsupported"})
		return
	}
	sub := s.broker.subscribe(parseKinds(kinds))
	if sub == nil {
		writeErr(w, errDraining())
		return
	}
	defer s.broker.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stream open\n\n")
	fl.Flush()
	var spare []byte
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.wake:
		}
		queued, open := s.broker.take(sub, spare)
		if len(queued) > 0 {
			if _, err := w.Write(queued); err != nil {
				return
			}
			fl.Flush()
		}
		if !open {
			return // broker let go: drain
		}
		spare = queued
	}
}

func (s *Server) handleTriggerCreate(w http.ResponseWriter, r *http.Request) {
	var tw triggerWire
	if aerr := s.decodeBody(w, r, &tw); aerr != nil {
		writeErr(w, aerr)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		writeErr(w, errDraining())
		return
	}
	var cond remo.TriggerCondition
	switch tw.Cond {
	case "above":
		cond = remo.TriggerAbove
	case "below":
		cond = remo.TriggerBelow
	default:
		writeErr(w, &apiError{http.StatusUnprocessableEntity, codeBadTrigger,
			fmt.Sprintf("cond must be \"above\" or \"below\", got %q", tw.Cond)})
		return
	}
	trg := remo.Trigger{
		Name:      tw.Name,
		Attr:      remo.AttrID(tw.Attr),
		Node:      remo.NodeID(tw.Node),
		Cond:      cond,
		Threshold: tw.Threshold,
		Cooldown:  tw.Cooldown,
	}
	if err := s.proc.AddTrigger(trg); err != nil {
		if errors.Is(err, store.ErrDuplicateTrigger) {
			writeErr(w, &apiError{http.StatusConflict, codeDuplicateTrigger, err.Error()})
			return
		}
		writeErr(w, &apiError{http.StatusUnprocessableEntity, codeBadTrigger, err.Error()})
		return
	}
	s.triggers[tw.Name] = trg
	writeJSON(w, http.StatusCreated, map[string]any{"trigger": tw})
}

func (s *Server) handleTriggerDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		writeErr(w, errDraining())
		return
	}
	if _, ok := s.triggers[name]; !ok {
		writeErr(w, &apiError{http.StatusNotFound, codeNotFound,
			fmt.Sprintf("trigger %q does not exist", name)})
		return
	}
	delete(s.triggers, name)
	s.proc.RemoveTrigger(name)
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

func (s *Server) handleTriggerList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]triggerWire, 0, len(s.triggers))
	for _, trg := range s.triggers {
		cond := "above"
		if trg.Cond == remo.TriggerBelow {
			cond = "below"
		}
		out = append(out, triggerWire{
			Name: trg.Name, Attr: int(trg.Attr), Node: int(trg.Node),
			Cond: cond, Threshold: trg.Threshold, Cooldown: trg.Cooldown,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"triggers": out})
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	alerts := s.proc.Alerts()
	out := make([]alertJSON, 0, len(alerts))
	for _, a := range alerts {
		out = append(out, alertWire(a))
	}
	writeJSON(w, http.StatusOK, map[string]any{"alerts": out})
}
