package remo

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"remo/internal/journal"
	"remo/internal/transport"
)

// Monitor is a live monitoring session: an emulated deployment that
// keeps collecting while the task set changes underneath it. Task
// updates go through the runtime adaptation planner (§4) and the
// resulting topology is swapped into the running overlay — values keep
// flowing, stale views persist across the swap, and the adaptation cost
// is reported per change.
//
// With fault injection (Chaos) or an explicit FailurePolicy the session
// is self-healing: a collector-side failure detector watches per-round
// heartbeats and delivered values, silent nodes are declared dead after
// the suspicion window, the topology is repaired around them (reusing
// the failure-repair planner), and the healed forest is hot-swapped into
// the running overlay. Nodes that come back are detected the same way
// and reintegrated. Every action is recorded in Report().Repairs.
//
// Typical use:
//
//	mon, _ := p.StartMonitor(remo.MonitorConfig{Scheme: remo.AdaptAdaptive})
//	defer mon.Close()
//	mon.Run(20)                       // 20 collection rounds
//	mon.SetTasks(newTasks)            // adapt the topology in place
//	mon.Run(20)
//	fmt.Println(mon.Report().AvgPercentError)
//
// Monitor is safe for concurrent use: Run, SetTasks, Report, Plan and
// Close may be called from different goroutines. Rounds are serialized
// under mu. SetTasks are serialized under planMu and hold mu only at
// their two ends — to snapshot the demand, and to install the finished
// plan between two rounds — so rounds go on while the planner works.
// The lock order is planMu, then mu, never the reverse.
//
// Reads are split in two. View — and Round, Fingerprint, Plan, Store,
// Failed, CollectorDown, JournalDir, ShardCount and ShardLeader, which
// are fields of it — are wait-free: one atomic load of the view the last
// state change published, never blocked by a round or a replan in
// flight, and still answering after Close. Report, Verify,
// RegionCoverage, VerifyRegionCoverage and ShardAssignment walk the
// collector's cumulative state and take the mutex, so they wait for the
// round or install in progress (not for a plan being made).
type Monitor struct {
	// planMu serializes SetTasks; it is taken before mu, never after.
	planMu sync.Mutex
	mu     sync.Mutex
	closed bool
	// s owns all session state; every locked method delegates to it.
	s *session
	// v is the read side: replaced, under mu, after every call that can
	// change what it holds (see locked).
	v atomic.Pointer[MonitorView]
}

// MonitorView is one published instant of a session's read side. Every
// field was true at the same moment — between two rounds — so a reader
// that needs several of them (a round and the fingerprint it ran under,
// a cursor and the store it indexes) takes one View and reads them all
// from it. A view is immutable once published: do not modify what its
// fields point to.
type MonitorView struct {
	// Round is the next round to execute.
	Round int
	// Fingerprint is the installed forest's structural fingerprint — the
	// identity a resumed session is matched against (ResumeReport.
	// PlanMatched).
	Fingerprint uint64
	// Plan is the topology in force.
	Plan *Plan
	// Store is the session's value repository (nil unless the session
	// journals): every collected value, and the state checkpointed for
	// crash recovery. It is live — rounds append while readers scan — so
	// it can already hold samples of round Round.
	Store *Store
	// JournalDir is the session's journal directory ("" for non-durable
	// sessions).
	JournalDir string
	// CollectorDown reports that the central collector is in a crash
	// window (chaos-injected or otherwise); a serve-mode backend resumes
	// it from the journal.
	CollectorDown bool
	// Failed lists the nodes declared dead, in ID order.
	Failed []NodeID
	// ShardCount is the number of collector shards (1 for a lone
	// collector) and ShardLeader the dispatcher's leaseholder.
	ShardCount, ShardLeader int
}

// FailurePolicy configures the self-healing behavior of a Monitor.
type FailurePolicy struct {
	// SuspicionRounds is how many consecutive silent rounds the failure
	// detector tolerates before declaring a node dead (default 3).
	SuspicionRounds int
	// DisableRepair keeps the detector on but leaves the topology alone:
	// failures are detected and reported, not repaired.
	DisableRepair bool
}

// MonitorConfig parameterizes a live session.
type MonitorConfig struct {
	// Scheme selects the adaptation policy. The default is
	// AdaptIncremental — scoped replanning seeded from the live
	// partition; AdaptAdaptive restores the paper's scheme.
	Scheme AdaptScheme
	// Source overrides the ground-truth value generator.
	Source ValueSource
	// UseTCP runs the overlay over loopback TCP.
	UseTCP bool
	// Seed decorrelates the default value generator.
	Seed uint64
	// OnValue, when set, receives every value the collector accepts
	// (alias-resolved). Feed it a Store and/or Processor to retain and
	// act on collected data:
	//
	//	st, pr := remo.NewStore(0), remo.NewProcessor(0)
	//	cfg.OnValue = func(p remo.Pair, round int, v float64) {
	//	    st.Observe(p, round, v)
	//	    pr.Observe(p, round, v)
	//	}
	OnValue func(pair Pair, round int, value float64)
	// Trace records structured emulation events.
	Trace *TraceRecorder
	// Chaos schedules fault injection (crashes, recoveries, loss, delay)
	// over the session. Setting it arms the failure detector and the
	// self-healing loop.
	Chaos *ChaosConfig
	// Failure tunes the detector and repair behavior; setting it (even
	// zero-valued) arms detection without requiring chaos injection.
	Failure *FailurePolicy
	// Journal, when set, makes the session durable: collector state is
	// checkpointed and write-ahead logged under this directory, and
	// leaves buffer outgoing values across collector outages (see
	// Monitor.Resume).
	Journal string
	// Processor, when set, is fed every collected value, so its
	// triggers fire on the live stream. Alongside Journal, its trigger
	// re-arm state is also checkpointed, so triggers resume with their
	// cooldowns intact.
	Processor *Processor
	// Shards is the number of collector shards behind a leader-elected
	// dispatcher; 0 or 1 runs one, the lone central collector. Above
	// one, the forest is spread across them by placement cost and a
	// shard death orphans only its trees (the dispatcher re-homes them
	// onto survivors). Whatever the count, a journaling session keeps one
	// journal, in Journal itself: the tier's root writes it, and a
	// crashed shard resumes from it (see Monitor.ResumeShard).
	Shards int
}

// ErrMonitorClosed is returned by operations on a closed Monitor.
var ErrMonitorClosed = errors.New("remo: monitor closed")

// ErrUnreachable marks the permanent branch of the transport's Send
// error taxonomy: the destination stayed unreachable after bounded
// retries. Test with errors.Is.
var ErrUnreachable = transport.ErrUnreachable

// StartMonitor plans the current task set and boots the live session.
// When the task set's demand is exactly the one the planner's last Plan
// searched, the session boots on that plan's partition (one evaluation,
// the same forest) instead of searching again.
func (p *Planner) StartMonitor(cfg MonitorConfig) (*Monitor, error) {
	d := p.currentDemand()
	s, err := p.startSession(cfg, d, journal.State{Partition: p.seedFor(d)})
	if err != nil {
		return nil, err
	}
	return newMonitor(s), nil
}

// newMonitor wraps a booted session and publishes its first view.
func newMonitor(s *session) *Monitor {
	m := &Monitor{s: s}
	m.v.Store(s.view())
	return m
}

// locked is every state change: take the mutex, refuse a closed
// session, run f on the session, publish the view it left behind and
// return it.
func (m *Monitor) locked(f func(*session) error) (*MonitorView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.v.Load(), ErrMonitorClosed
	}
	err := f(m.s)
	v := m.s.view()
	m.v.Store(v)
	return v, err
}

// View returns the session's current read side. It never waits.
func (m *Monitor) View() MonitorView { return *m.v.Load() }

// Run executes n collection rounds, applying self-healing between
// rounds: failure-detector verdicts reached during a round trigger an
// automatic topology repair (or reintegration) before the next one.
func (m *Monitor) Run(n int) error {
	for i := 0; i < n; i++ {
		if _, err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes one round, as Run(1), and returns the view it
// published: the round's own, whatever a concurrent SetTasks installs
// right after it.
func (m *Monitor) Step() (MonitorView, error) {
	v, err := m.locked((*session).step)
	return *v, err
}

// Fingerprint is View().Fingerprint.
func (m *Monitor) Fingerprint() uint64 { return m.v.Load().Fingerprint }

// Round is View().Round: the next round to execute.
func (m *Monitor) Round() int { return m.v.Load().Round }

// Verify cross-checks the session's current state against the
// verification harness: the topology in force (structure, ownership,
// capacity against the currently installed demand) and the collector's
// cumulative result. It also surfaces the first verification failure
// recorded by the self-healing loop. Verification must be armed via
// WithVerification on the planner; otherwise Verify runs the same
// checks on demand.
func (m *Monitor) Verify() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.verify()
}

// SetTasks replaces the task set, adapts the topology per the session's
// scheme, and rewires the running overlay. Nodes currently declared
// dead stay excluded until the detector sees them recover.
//
// It plans on a snapshot of the demand and the dead set with the mutex
// released, so rounds (and Checkpoint, Resume, Verify) go on meanwhile
// under the plan still in force, and only the install lands between two
// rounds. Verdicts the detector reaches while it plans are journaled at
// once and healed at the install: a node that died since the snapshot is
// repaired around, one that came back is reintegrated.
func (m *Monitor) SetTasks(tasks []Task) (AdaptReport, error) {
	m.planMu.Lock()
	defer m.planMu.Unlock()
	var snap replan
	if _, err := m.locked(func(s *session) (err error) {
		snap, err = s.beginReplan(tasks)
		return err
	}); err != nil {
		return AdaptReport{}, err
	}
	p := m.s.adaptor.Propose(snap.demand, snap.base)
	var rep AdaptReport
	v, err := m.locked(func(s *session) error {
		rep = s.commitReplan(snap, p)
		return nil
	})
	if err != nil {
		return AdaptReport{}, err
	}
	rep.Round, rep.Fingerprint = v.Round, v.Fingerprint
	return rep, nil
}

// ResumeReport summarizes what a resume recovered from the journal.
type ResumeReport struct {
	// Epoch is the plan epoch after the resume — strictly newer than
	// anything the crashed collector could have been sent, so pre-crash
	// frames are fenced.
	Epoch uint32
	// RecoveredRound is the newest round with journaled samples.
	RecoveredRound int
	// RecoveredSamples is the number of samples restored from the
	// journal into the repository.
	RecoveredSamples int
	// ReplayedRecords counts WAL records applied on top of the latest
	// checkpoint.
	ReplayedRecords int
	// TornTail reports that a torn or corrupt WAL tail was truncated —
	// the signature of a crash mid-write.
	TornTail bool
	// PlanMatched reports that the live topology's fingerprint equals
	// the journaled one: the session resumed onto the exact plan that
	// was installed before the crash.
	PlanMatched bool
}

// Resume restarts this session's crashed central collector from the
// session's journal: views are rebuilt strictly from recovered state
// (never from the dead collector's memory), the failure detector
// restarts with the recovered dead set, the plan epoch advances so
// stale pre-crash frames are fenced, and the leaves' — who never died —
// buffered values drain into the recovered collector on the next round.
// Journaling re-arms into the same directory.
//
// The session must have been started with journaling
// (MonitorConfig.Journal), and its collector must be down: a lone
// collector's crash (ChaosConfig.CollectorCrashAt). A sharded tier's
// root never dies; its shards resume with ResumeShard.
func (m *Monitor) Resume() (rr ResumeReport, err error) {
	_, err = m.locked(func(s *session) (err error) {
		if rr, err = s.resumeCollector(); err != nil {
			return fmt.Errorf("remo: resume: %w", err)
		}
		return nil
	})
	return rr, err
}

// ResumeShard restarts one crashed collector shard from a read-only
// recovery of the session's journal, which the tier's root — it never
// dies — kept writing through the outage: the shard's views are rebuilt
// strictly from the recovered repository, its trees open an epoch past
// anything the dead shard could have been sent, its forecasting
// replicas come back gated until the next sync, and the dispatcher
// rebalances trees back onto it as soon as it heartbeats. The journal
// writer is left as it is, and the other shards are untouched — that is
// the point of sharding the collection tier.
//
// The session must have been started with both Shards > 1 and
// journaling.
func (m *Monitor) ResumeShard(sh int) (rr ResumeReport, err error) {
	_, err = m.locked(func(s *session) (err error) {
		if rr, err = s.resumeShard(sh); err != nil {
			return fmt.Errorf("remo: resume shard %d: %w", sh, err)
		}
		return nil
	})
	return rr, err
}

// ResumeMonitor cold-starts a monitoring session from a journal: the
// recovered installed demand is replanned, a fresh machine boots at
// round zero, and every collector shard is seeded with the journal's
// store and epoch and the failure detector with its dead set, the same
// path whatever the shard count. Use it when the whole process died;
// the round clock restarts, so recovered dead declarations are anchored
// at -1 (any fresh evidence of life resurrects) and recovered views are
// clamped below round zero.
func (p *Planner) ResumeMonitor(journalDir string, cfg MonitorConfig) (*Monitor, ResumeReport, error) {
	cfg.Journal = journalDir
	s, rr, err := p.resumeSession(cfg)
	if err != nil {
		return nil, ResumeReport{}, err
	}
	return newMonitor(s), rr, nil
}

// Store is View().Store: the session's value repository (nil unless
// the session journals).
func (m *Monitor) Store() *Store { return m.v.Load().Store }

// Plan is View().Plan: the topology currently in force.
func (m *Monitor) Plan() *Plan { return m.v.Load().Plan }

// Failed lists the nodes currently declared dead, in ID order.
func (m *Monitor) Failed() []NodeID { return slices.Clone(m.v.Load().Failed) }

// Report summarizes everything the collector observed so far, including
// the session's self-healing history.
func (m *Monitor) Report() DeployReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.report()
}

// ShardCount is View().ShardCount: the number of collector shards (1
// for a lone collector).
func (m *Monitor) ShardCount() int { return m.v.Load().ShardCount }

// ShardAssignment snapshots the dispatcher's tree→shard map (every tree
// on shard 0 for a lone collector). Orphans awaiting re-dispatch are
// included, booked to the dead shard they came from.
func (m *Monitor) ShardAssignment() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.machine.ShardAssignment()
}

// ShardLeader is View().ShardLeader: the dispatcher's current
// leaseholder (0 for a lone collector).
func (m *Monitor) ShardLeader() int { return m.v.Load().ShardLeader }

// CollectorDown is View().CollectorDown: whether the central collector
// is in a crash window.
func (m *Monitor) CollectorDown() bool { return m.v.Load().CollectorDown }

// JournalDir is View().JournalDir: the session's journal directory (""
// for non-durable sessions).
func (m *Monitor) JournalDir() string { return m.v.Load().JournalDir }

// Checkpoint forces a journal checkpoint of the session's durable state
// now, off the usual cadence — a serve-mode drain seals one before the
// process exits. It is a no-op error on non-durable sessions. Taken
// while a SetTasks plans, it describes the plan still in force.
func (m *Monitor) Checkpoint() error {
	_, err := m.locked(func(s *session) error {
		if s.log == nil {
			return errors.New("remo: checkpoint: session was started without journaling")
		}
		if err := s.checkpoint(); err != nil {
			return fmt.Errorf("remo: %w", err)
		}
		return nil
	})
	return err
}

// Close stops the session and releases its transport. The wait-free
// reads keep answering from the last view published before it.
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.s.close()
}
