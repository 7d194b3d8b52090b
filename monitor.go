package remo

import (
	"errors"
	"fmt"
	"sync"

	"remo/internal/journal"
	"remo/internal/model"
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
// Close may be called from different goroutines. Rounds are serialized;
// a SetTasks lands between rounds of a concurrent Run.
type Monitor struct {
	mu     sync.Mutex
	closed bool
	// s owns all session state; every method locks, checks closed where
	// the call needs a live session, and delegates.
	s *session
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
	// OnValue receives every collected value (see DeployConfig.OnValue).
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
	// checkpointed and write-ahead logged under this directory, epoch
	// fencing is armed, and leaves buffer outgoing values across
	// collector outages (see Monitor.Resume).
	Journal string
	// Processor, when set alongside Journal, is fed every collected
	// value and has its trigger re-arm state checkpointed, so triggers
	// resume with their cooldowns intact.
	Processor *Processor
	// Shards > 1 runs the collection tier as that many collector shards
	// behind a leader-elected dispatcher: the forest is spread across
	// them by placement cost, a shard death orphans only its trees (the
	// dispatcher re-homes them onto survivors), and with Journal set
	// each shard checkpoints its own state under Journal/shard-<i> (see
	// Monitor.ResumeShard).
	Shards int
}

// ErrMonitorClosed is returned by operations on a closed Monitor.
var ErrMonitorClosed = errors.New("remo: monitor closed")

// ErrUnreachable marks the permanent branch of the transport's Send
// error taxonomy: the destination stayed unreachable after bounded
// retries. Test with errors.Is.
var ErrUnreachable = transport.ErrUnreachable

// StartMonitor plans the current task set and boots the live session.
func (p *Planner) StartMonitor(cfg MonitorConfig) (*Monitor, error) {
	s, err := p.startSession(cfg, p.currentDemand(), journal.State{})
	if err != nil {
		return nil, err
	}
	return &Monitor{s: s}, nil
}

// Run executes n collection rounds, applying self-healing between
// rounds: failure-detector verdicts reached during a round trigger an
// automatic topology repair (or reintegration) before the next one.
func (m *Monitor) Run(n int) error {
	for i := 0; i < n; i++ {
		m.mu.Lock()
		err := ErrMonitorClosed
		if !m.closed {
			err = m.s.step()
		}
		m.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint returns the installed forest's structural fingerprint —
// the identity a resumed session is matched against (ResumeReport.
// PlanMatched).
func (m *Monitor) Fingerprint() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.adaptor.Forest().Fingerprint()
}

// Round returns the next round to execute.
func (m *Monitor) Round() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.machine.Round()
}

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
func (m *Monitor) SetTasks(tasks []Task) (AdaptReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return AdaptReport{}, ErrMonitorClosed
	}
	return m.s.setTasks(tasks)
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
// journal in journalDir: views are rebuilt strictly from recovered
// state (never from the dead collector's memory), the failure
// detector restarts with the recovered dead set, the plan epoch
// advances so stale pre-crash frames are fenced, and the leaves' — who
// never died — buffered values drain into the recovered collector on
// the next round. Journaling re-arms into the same directory.
//
// The session must have been started with journaling
// (MonitorConfig.Journal).
func (m *Monitor) Resume(journalDir string) (ResumeReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ResumeReport{}, ErrMonitorClosed
	}
	rr, err := m.s.resumeCollector(journalDir)
	if err != nil {
		return ResumeReport{}, fmt.Errorf("remo: resume: %w", err)
	}
	return rr, nil
}

// ResumeShard restarts one crashed collector shard from its own
// journal (Journal/shard-<s>): the shard's views are rebuilt strictly
// from its recovered repository, its trees open an epoch past anything
// the dead shard could have been sent, and the dispatcher rebalances
// trees back onto it as soon as it heartbeats. The other shards are
// untouched — that is the point of sharding the collection tier.
//
// The session must have been started with both Shards > 1 and
// journaling.
func (m *Monitor) ResumeShard(s int) (ResumeReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ResumeReport{}, ErrMonitorClosed
	}
	rr, err := m.s.resumeShard(s)
	if err != nil {
		return ResumeReport{}, fmt.Errorf("remo: resume shard %d: %w", s, err)
	}
	return rr, nil
}

// ResumeMonitor cold-starts a monitoring session from a journal: the
// recovered installed demand is replanned, a fresh machine boots at
// round zero, and the collector is seeded with the journal's store,
// dead set and epoch. Use it when the whole process died; the
// round clock restarts, so recovered dead declarations are anchored at
// -1 (any fresh evidence of life resurrects) and recovered views are
// clamped below round zero.
func (p *Planner) ResumeMonitor(journalDir string, cfg MonitorConfig) (*Monitor, ResumeReport, error) {
	cfg.Journal = journalDir
	s, rr, err := p.resumeSession(cfg)
	if err != nil {
		return nil, ResumeReport{}, err
	}
	return &Monitor{s: s}, rr, nil
}

// Store exposes the session's value repository (nil unless the session
// journals). It retains every collected value and is the state
// checkpointed for crash recovery.
func (m *Monitor) Store() *Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.s.logs) == 0 {
		return nil
	}
	return m.s.logs[0].repo
}

// Plan exposes the topology currently in force.
func (m *Monitor) Plan() *Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.plan()
}

// Failed lists the nodes currently declared dead, in ID order.
func (m *Monitor) Failed() []NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeID, 0, len(m.s.dead))
	for n := range m.s.dead {
		out = append(out, n)
	}
	model.SortNodes(out)
	return out
}

// Report summarizes everything the collector observed so far, including
// the session's self-healing history.
func (m *Monitor) Report() DeployReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.report()
}

// ShardCount returns the number of collector shards (0 for a
// single-collector session).
func (m *Monitor) ShardCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.machine.ShardCount()
}

// ShardAssignment snapshots the dispatcher's tree→shard map (nil for
// single-collector sessions). Orphans awaiting re-dispatch are included,
// booked to the dead shard they came from.
func (m *Monitor) ShardAssignment() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.machine.ShardAssignment()
}

// ShardLeader returns the dispatcher's current leaseholder (-1 for
// single-collector sessions).
func (m *Monitor) ShardLeader() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.machine.ShardLeader()
}

// CollectorDown reports whether the central collector is currently in
// a crash window (chaos-injected or otherwise). A serve-mode backend
// polls it to decide when to auto-resume from the journal.
func (m *Monitor) CollectorDown() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.machine.CollectorDown()
}

// JournalDir returns the session's journal directory ("" for
// non-durable sessions).
func (m *Monitor) JournalDir() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.s.logs) == 0 {
		return ""
	}
	return m.s.logs[0].dir
}

// Checkpoint forces a journal checkpoint of the session's durable state
// now, off the usual cadence — a serve-mode drain seals one before the
// process exits. It is a no-op error on non-durable sessions.
func (m *Monitor) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrMonitorClosed
	}
	if len(m.s.logs) == 0 {
		return errors.New("remo: checkpoint: session was started without journaling")
	}
	if err := m.s.checkpoint(); err != nil {
		return fmt.Errorf("remo: %w", err)
	}
	return nil
}

// Close stops the session and releases its transport.
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.s.close()
}
