// Package serve is the service front door: a long-running HTTP/JSON
// tier wrapping a remo.Planner/Monitor pair. It follows a strict
// frontend/backend split — admission handlers validate synchronously,
// mutate the desired task set, and enqueue an asynchronous operation.
// Two goroutines own the Monitor: the backend runs rounds on a pacing
// clock and journals a final checkpoint on drain; the planner, woken by
// the queue, materializes the desired state (driving the incremental
// replanner) beside the rounds, which keep running while it plans.
// Callers poll operation status; store values and trigger firings
// stream over SSE.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"remo"
	"remo/internal/metrics"
	"remo/internal/model"
)

// Config parameterizes a Server.
type Config struct {
	// Planner owns the system model and planning configuration. The
	// desired task set starts from the planner's current tasks.
	Planner *remo.Planner
	// Monitor configures the session. Its Journal directory is required:
	// a service that cannot checkpoint cannot drain gracefully.
	Monitor remo.MonitorConfig
	// RoundEvery paces collection rounds (default 50ms).
	RoundEvery time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// StreamBuffer bounds a subscriber's backlog in events (default
	// 256); a round's events that would overflow a slow subscriber's
	// backlog are dropped whole, counted, and announced by a gap event.
	StreamBuffer int
	// VerifyEvery cross-checks the live session every n rounds when the
	// planner has verification armed (default 32; <0 disables).
	VerifyEvery int
}

const (
	// opRetention bounds retained operation-status records; terminal
	// records beyond it are evicted oldest-first.
	opRetention = 65536
	// maxBatch bounds how many queued operations one round applies.
	maxBatch = 1024
)

// Server is one service instance. Create with New, mount Handler on an
// http.Server, and Drain on shutdown.
type Server struct {
	cfg     Config
	planner *remo.Planner
	mon     *remo.Monitor
	proc    *remo.Processor
	obs     observes
	// attrs is the set of attributes observed anywhere in the system.
	attrs map[model.AttrID]bool

	mu sync.Mutex
	// desired is the intended task set: updated synchronously by
	// admission, materialized asynchronously by the backend.
	desired map[string]remo.Task
	// pairRefs/pairCount track distinct observable pairs across the
	// desired set for O(task) admission-budget checks.
	pairRefs  map[model.Pair]int
	pairCount int
	draining  bool
	triggers  map[string]remo.Trigger

	ops    *opRegistry
	queue  chan *operation
	broker *broker
	// pending collects the round in flight's stream events; the backend
	// publishes it whole once the round returns.
	pending chunk

	ctx    context.Context
	cancel context.CancelFunc
	// planned closes when the planner goroutine exits, done when the
	// backend does.
	planned chan struct{}
	done    chan struct{}
	drain   sync.Once

	reg *metrics.Registry
	ins instruments
}

// instruments is the server's metric set (see newInstruments for the
// exposition names).
type instruments struct {
	rounds          *metrics.Counter
	opsEnqueued     *metrics.Counter
	opsSucceeded    *metrics.Counter
	opsFailed       *metrics.Counter
	opsRejected     *metrics.Counter
	admission       *metrics.Histogram
	replans         *metrics.Counter
	replansInc      *metrics.Counter
	replansFellBack *metrics.Counter
	treesKept       *metrics.Counter
	treesRebuilt    *metrics.Counter
	streamEvents    *metrics.Counter
	streamDropped   *metrics.Counter
	streamSubs      *metrics.Gauge
	draining        *metrics.Gauge
	resumes         *metrics.Counter
	resumeFailures  *metrics.Counter
	verifyFailures  *metrics.Counter
	httpRequests    *metrics.Counter
	httpErrors      *metrics.Counter
	roundErrors     *metrics.Counter
}

func newInstruments(reg *metrics.Registry) instruments {
	return instruments{
		rounds:          reg.Counter("remo_rounds_total", "collection rounds executed"),
		opsEnqueued:     reg.Counter("remo_ops_enqueued_total", "admitted operations"),
		opsSucceeded:    reg.Counter("remo_ops_succeeded_total", "operations applied"),
		opsFailed:       reg.Counter("remo_ops_failed_total", "operations that failed to apply"),
		opsRejected:     reg.Counter("remo_ops_rejected_total", "admissions rejected at validation"),
		admission:       reg.Histogram("remo_admission_seconds", "admission handling latency", nil),
		replans:         reg.Counter("remo_replans_total", "plan swaps driven by task mutations"),
		replansInc:      reg.Counter("remo_replans_incremental_total", "plan swaps served by the scoped replanner"),
		replansFellBack: reg.Counter("remo_replans_fallback_total", "scoped replans discarded for a full replan"),
		treesKept:       reg.Counter("remo_trees_kept_total", "trees kept across replans"),
		treesRebuilt:    reg.Counter("remo_trees_rebuilt_total", "trees rebuilt across replans"),
		streamEvents:    reg.Counter("remo_stream_events_total", "events published to stream subscribers"),
		streamDropped:   reg.Counter("remo_stream_dropped_total", "events dropped on slow subscribers"),
		streamSubs:      reg.Gauge("remo_stream_subscribers", "live stream subscribers"),
		draining:        reg.Gauge("remo_draining", "1 while the server drains"),
		resumes:         reg.Counter("remo_collector_resumes_total", "collector auto-resumes from the journal"),
		resumeFailures:  reg.Counter("remo_collector_resume_failures_total", "collector auto-resumes the journal could not serve (retried next round)"),
		verifyFailures:  reg.Counter("remo_verify_failures_total", "live verification failures"),
		httpRequests:    reg.Counter("remo_http_requests_total", "HTTP requests served"),
		httpErrors:      reg.Counter("remo_http_errors_total", "HTTP responses with error status"),
		roundErrors:     reg.Counter("remo_round_errors_total", "collection rounds that returned an error"),
	}
}

// observes answers "does node n observe attribute a" in O(1).
type observes map[model.NodeID]map[model.AttrID]bool

func observesIndex(sys *remo.System) observes {
	idx := make(observes, len(sys.Nodes))
	for _, n := range sys.Nodes {
		set := make(map[model.AttrID]bool, len(n.Attrs))
		for _, a := range n.Attrs {
			set[a] = true
		}
		idx[n.ID] = set
	}
	return idx
}

// attrIndex is the set of attributes observed by at least one node.
func attrIndex(sys *remo.System) map[model.AttrID]bool {
	set := make(map[model.AttrID]bool)
	for _, n := range sys.Nodes {
		for _, a := range n.Attrs {
			set[a] = true
		}
	}
	return set
}

// New boots the monitor session and the backend and planner
// goroutines. The caller must Drain (or Close) the returned server.
func New(cfg Config) (*Server, error) {
	if cfg.Planner == nil {
		return nil, errors.New("serve: Config.Planner is required")
	}
	if cfg.Monitor.Journal == "" {
		return nil, errors.New("serve: a journal directory is required (MonitorConfig.Journal)")
	}
	if cfg.RoundEvery <= 0 {
		cfg.RoundEvery = 50 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.StreamBuffer <= 0 {
		cfg.StreamBuffer = 256
	}
	if cfg.VerifyEvery == 0 {
		cfg.VerifyEvery = 32
	}

	reg := metrics.NewRegistry()
	ins := newInstruments(reg)
	s := &Server{
		cfg:      cfg,
		planner:  cfg.Planner,
		obs:      observesIndex(cfg.Planner.System()),
		attrs:    attrIndex(cfg.Planner.System()),
		desired:  make(map[string]remo.Task),
		pairRefs: make(map[model.Pair]int),
		triggers: make(map[string]remo.Trigger),
		ops:      newOpRegistry(opRetention),
		queue:    make(chan *operation, maxBatch),
		planned:  make(chan struct{}),
		done:     make(chan struct{}),
		reg:      reg,
		ins:      ins,
	}
	s.broker = newBroker(cfg.StreamBuffer, ins.streamEvents, ins.streamDropped, ins.streamSubs)

	mcfg := cfg.Monitor
	s.proc = mcfg.Processor
	if s.proc == nil {
		s.proc = remo.NewProcessor(0)
		mcfg.Processor = s.proc
	}
	s.proc.SetHandler(func(a remo.Alert) {
		if s.broker.listening() {
			s.pending.appendAlert(alertWire(a))
		}
	})
	user := mcfg.OnValue
	mcfg.OnValue = func(pair remo.Pair, round int, value float64) {
		if s.broker.listening() {
			s.pending.appendValue(valueWire{
				Node: int(pair.Node), Attr: int(pair.Attr), Round: round, Value: value,
			})
		}
		if user != nil {
			user(pair, round, value)
		}
	}

	// Seed the desired set (and its pair accounting) from the planner.
	for _, t := range cfg.Planner.Tasks() {
		s.desired[t.Name] = t.Clone()
		for _, pr := range t.Pairs() {
			if !s.obs[pr.Node][pr.Attr] {
				continue
			}
			if s.pairRefs[pr]++; s.pairRefs[pr] == 1 {
				s.pairCount++
			}
		}
	}

	mon, err := cfg.Planner.StartMonitor(mcfg)
	if err != nil {
		return nil, fmt.Errorf("serve: start monitor: %w", err)
	}
	s.mon = mon

	// Region-labeled systems expose per-region coverage as a labeled
	// gauge family, refreshed from the live session at scrape time.
	if len(cfg.Planner.System().Regions()) > 1 {
		reg.LabeledGaugeFunc("remo_region_coverage",
			"per-region coverage percent of demanded pairs", "region",
			func() map[string]float64 { return mon.RegionCoverage() })
	}

	s.ctx, s.cancel = context.WithCancel(context.Background())
	go s.plan()
	go s.backend()
	return s, nil
}

// Monitor exposes the owned session (tests and the resume flow).
func (s *Server) Monitor() *remo.Monitor { return s.mon }

// Registry exposes the metric registry (tests).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Draining reports whether the server has begun draining.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// backend runs rounds on the pacing clock, auto-resumes a crashed
// collector from the journal, and publishes round events. On drain it
// waits for the planner goroutine to stop, then applies what is left.
func (s *Server) backend() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.RoundEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			<-s.planned
			s.finalDrain()
			return
		case <-ticker.C:
		}
		s.runRound()
	}
}

// plan is the planner goroutine: it wakes on the first queued
// operation, coalesces whatever else is queued by then, and applies the
// batch with one SetTasks while rounds go on. Operations admitted during
// that plan wait for the next batch.
func (s *Server) plan() {
	defer close(s.planned)
	for {
		select {
		case <-s.ctx.Done():
			return
		case op := <-s.queue:
			s.applyBatch(append([]*operation{op}, s.drainQueue()...))
		}
	}
}

// drainQueue collects queued operations without blocking, up to the
// batch bound.
func (s *Server) drainQueue() []*operation {
	var batch []*operation
	for len(batch) < maxBatch {
		select {
		case op := <-s.queue:
			batch = append(batch, op)
		default:
			return batch
		}
	}
	return batch
}

// applyBatch materializes the desired task set with one coalesced
// SetTasks covering every operation in the batch.
func (s *Server) applyBatch(batch []*operation) {
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	tasks := make([]remo.Task, 0, len(s.desired))
	for _, t := range s.desired {
		tasks = append(tasks, t)
	}
	s.mu.Unlock()
	for _, op := range batch {
		s.ops.setStatus(op, OpApplying, nil, ReplanSummary{})
	}
	rep, err := s.mon.SetTasks(tasks)
	if err != nil {
		s.ins.opsFailed.Add(int64(len(batch)))
		for _, op := range batch {
			s.ops.setStatus(op, OpFailed, err, ReplanSummary{Round: s.mon.Round()})
		}
		return
	}
	s.ins.replans.Inc()
	if rep.Incremental {
		s.ins.replansInc.Inc()
	}
	if rep.FellBack {
		s.ins.replansFellBack.Inc()
	}
	s.ins.treesKept.Add(int64(rep.TreesKept))
	s.ins.treesRebuilt.Add(int64(rep.TreesRebuilt))
	s.ins.opsSucceeded.Add(int64(len(batch)))
	sum := ReplanSummary{
		Round:        rep.Round,
		Fingerprint:  rep.Fingerprint,
		TreesKept:    rep.TreesKept,
		TreesRebuilt: rep.TreesRebuilt,
		TreesDropped: rep.TreesDropped,
		ReusePct:     rep.TreeReusePct,
		Incremental:  rep.Incremental,
		FellBack:     rep.FellBack,
	}
	for _, op := range batch {
		s.ops.setStatus(op, OpSucceeded, nil, sum)
	}
}

// runRound executes one collection round, publishes its stream events,
// and self-heals a crashed collector from the journal. A healthy round
// takes the monitor's mutex once, in Step; what it then reports comes
// from the view that step published, not a later one: a SetTasks may
// install its plan the moment the round lets go of the mutex.
func (s *Server) runRound() {
	v, err := s.mon.Step()
	if err != nil {
		s.ins.roundErrors.Inc()
		// What the failed round observed still streams, with no round event.
		s.broker.publish(&s.pending)
		return
	}
	s.ins.rounds.Inc()
	round := v.Round - 1
	// The round's values and alerts, then its round event, go out in one
	// hand-off as soon as Run has journaled them, ahead of the resume and
	// verification that would otherwise age every value they carry.
	s.pending.appendRound(roundWire{Round: round, Fingerprint: v.Fingerprint})
	s.broker.publish(&s.pending)
	if v.CollectorDown {
		// A chaos (or real) collector outage latches until an explicit
		// resume; the service owns the session, so it restarts the
		// collector from the session's journal, and tries again next round
		// if the journal cannot serve it.
		if _, err := s.mon.Resume(); err != nil {
			s.ins.resumeFailures.Inc()
		} else {
			s.ins.resumes.Inc()
		}
	}
	if n := s.cfg.VerifyEvery; n > 0 && round > 0 && round%n == 0 {
		if err := s.mon.Verify(); err != nil {
			s.ins.verifyFailures.Inc()
		}
	}
}

// finalDrain applies every remaining queued operation, seals the final
// checkpoint, and closes the session and the stream broker. Backend
// goroutine only, once the planner goroutine has stopped.
func (s *Server) finalDrain() {
	for {
		batch := s.drainQueue()
		if len(batch) == 0 {
			break
		}
		s.applyBatch(batch)
	}
	if s.planner != nil && s.mon != nil {
		if err := s.mon.Verify(); err != nil {
			s.ins.verifyFailures.Inc()
		}
	}
	_ = s.mon.Checkpoint()
	_ = s.mon.Close()
	s.broker.close()
}

// Drain gracefully shuts the server down: new mutations are rejected,
// the plan in flight is installed, queued operations are applied, a
// final checkpoint is sealed, and stream subscribers are disconnected.
// It blocks until both goroutines have exited and is safe to call more
// than once.
func (s *Server) Drain() {
	s.drain.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.ins.draining.Set(1)
		s.cancel()
	})
	<-s.done
}

// Close is Drain (lifecycle convenience for defer).
func (s *Server) Close() error {
	s.Drain()
	return nil
}
