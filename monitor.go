package remo

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"remo/internal/adapt"
	"remo/internal/cluster"
	"remo/internal/detect"
	"remo/internal/journal"
	"remo/internal/model"
	"remo/internal/partition"
	"remo/internal/plan"
	"remo/internal/predict"
	"remo/internal/repair"
	"remo/internal/store"
	"remo/internal/task"
	"remo/internal/trace"
	"remo/internal/transport"
	"remo/internal/tree"
	"remo/internal/verify"
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
	mu      sync.Mutex
	planner *Planner
	adaptor *adapt.Adaptor
	machine *cluster.Machine
	closed  bool

	// heal enables automatic repair (false = detect and report only).
	heal    bool
	builder tree.Builder
	trace   *TraceRecorder
	// baseDemand is the demand of the current task set before failure
	// pruning — the target to restore when nodes recover.
	baseDemand *task.Demand
	// dead tracks declared-dead nodes already pruned from the topology.
	dead map[model.NodeID]struct{}

	failures   int
	recoveries int
	repairs    []RepairEvent
	// replans records every SetTasks-driven plan swap's diff.
	replans []ReplanEvent

	// verifyOn mirrors the planner's WithVerification setting: every
	// topology hot-swapped in by the self-healing loop is cross-checked
	// by the invariant checker, and Verify covers live results too.
	verifyOn bool
	// verifyErr is the first verification failure observed by the
	// self-healing loop (surfaced by Verify and Run).
	verifyErr error

	// Durability state (nil/zero unless the session journals).
	journal    *journal.Writer
	journalDir string
	jopts      journal.Options
	// repo retains every collected value; it is both the queryable
	// repository and the state checkpointed to the journal.
	repo *store.Store
	// proc, when provided, has its trigger re-arm state checkpointed.
	proc *store.Processor
	// pending buffers the current round's accepted values between the
	// machine's absorb and the journal append (coordinator goroutine
	// only, under mu).
	pending []journal.SampleRec
	// journalErr is the first journal write failure (surfaced by Run).
	journalErr error
	// restarts counts successful collector resumes.
	restarts int

	// Sharded durability (nil unless the session shards and journals).
	// Each shard owns a journal directory under the session's, a scoped
	// repository of the values it collected, and its own pending buffer,
	// so a shard crash loses only that shard's unjournaled tail.
	shardRepos    []*store.Store
	shardPending  [][]journal.SampleRec
	shardJournals []*journal.Writer
	// movesSeen is how many dispatcher moves the main journal has
	// already captured as assignment records.
	movesSeen int
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
	// partition — unless the planner disabled it via
	// WithIncrementalReplan(false), which falls back to AdaptAdaptive.
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
	// collector outages (see Monitor.Resume). Defaults to the planner's
	// WithJournal directory.
	Journal string
	// LeafBufferFrames bounds each node's outgoing buffer when
	// journaling (default 64 frames; ignored without Journal).
	LeafBufferFrames int
	// JournalCheckpointEvery is the checkpoint cadence in rounds
	// (default 16; ignored without Journal).
	JournalCheckpointEvery int
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
	// ShardLease overrides the dispatcher's leadership lease length in
	// rounds (default shard.DefaultLeaseRounds; ignored unless
	// Shards > 1).
	ShardLease int
}

// ErrMonitorClosed is returned by operations on a closed Monitor.
var ErrMonitorClosed = errors.New("remo: monitor closed")

// ErrUnreachable marks the permanent branch of the transport's Send
// error taxonomy: the destination stayed unreachable after bounded
// retries. Test with errors.Is.
var ErrUnreachable = transport.ErrUnreachable

// StartMonitor plans the current task set and boots the live session.
func (p *Planner) StartMonitor(cfg MonitorConfig) (*Monitor, error) {
	return p.startMonitor(cfg, p.currentDemand(), nil, nil, nil)
}

// startMonitor boots a session over the given demand (the planner's
// current demand normally, a journal-recovered one on cold resume).
// seedSets, when it forms a valid partition of the demand's universe,
// seeds the initial topology deterministically from a journaled
// partition instead of searching, so a cold resume rebuilds the exact
// pre-crash forest. seedAssign likewise seeds the shard dispatcher's
// tree→shard map from a journaled assignment, and seedModels seeds
// both ends of the forecasting replicas from journaled snapshots (a
// cold restart restores leaf and collector from the same snapshot, so
// lockstep holds from round zero).
func (p *Planner) startMonitor(cfg MonitorConfig, demand *task.Demand, seedSets []model.AttrSet, seedAssign map[string]int, seedModels map[model.Pair]predict.Snapshot) (*Monitor, error) {
	scheme := cfg.Scheme
	if scheme == "" {
		if p.incReplan {
			scheme = AdaptIncremental
		} else {
			scheme = AdaptAdaptive
		}
	}
	core := p.corePlanner()
	ad := adapt.New(scheme, core, p.sys)
	if len(p.replanOpts) > 0 {
		ad.SetReplanOptions(p.replanOpts...)
	}
	if len(seedSets) > 0 && partition.Validate(seedSets, demand.Universe()) == nil {
		ad.InitPartition(demand, seedSets)
	} else {
		ad.Init(demand)
	}

	var source ValueSource = cfg.Source
	if source == nil {
		source = cluster.BurstyWalk{Seed: cfg.Seed}
	}
	var det *detect.Config
	if cfg.Chaos != nil || cfg.Failure != nil {
		det = &detect.Config{}
		if cfg.Failure != nil {
			det.SuspicionRounds = cfg.Failure.SuspicionRounds
		}
	}
	labelRegionChaos(cfg.Chaos, p.sys)
	if cfg.Journal == "" {
		cfg.Journal = p.journalDir
	}
	// mon is allocated up front so the journaling observer can close
	// over it; its fields are filled in below, before any round runs.
	mon := &Monitor{}
	observer := cfg.OnValue
	if cfg.Journal != "" {
		mon.repo = store.New(0)
		mon.proc = cfg.Processor
		if cfg.Shards > 1 {
			mon.shardRepos = make([]*store.Store, cfg.Shards)
			mon.shardPending = make([][]journal.SampleRec, cfg.Shards)
			for s := range mon.shardRepos {
				mon.shardRepos[s] = store.New(0)
			}
		}
		user := cfg.OnValue
		observer = func(pair Pair, round int, value float64) {
			mon.repo.Observe(pair, round, value)
			if mon.proc != nil {
				mon.proc.Observe(pair, round, value)
			}
			mon.pending = append(mon.pending, journal.SampleRec{
				Pair: pair, Round: round, Value: value,
			})
			// Route the value to its owning shard's repository and
			// pending buffer; residual (shardless) values live only in
			// the session-wide journal.
			if mon.shardRepos != nil {
				if s := mon.machine.ShardOf(pair); s >= 0 && s < len(mon.shardRepos) {
					mon.shardRepos[s].Observe(pair, round, value)
					mon.shardPending[s] = append(mon.shardPending[s], journal.SampleRec{
						Pair: pair, Round: round, Value: value,
					})
				}
			}
			if user != nil {
				user(pair, round, value)
			}
		}
	}
	ccfg := cluster.Config{
		Sys:             p.sys,
		Forest:          ad.Forest(),
		Demand:          ad.Demand(),
		Spec:            p.aggSpec,
		Source:          source,
		Resolve:         p.resolveAttr,
		EnforceCapacity: true,
		Chaos:           cfg.Chaos,
		Detect:          det,
		Observer:        observer,
		Trace:           cfg.Trace,
		Shards:          cfg.Shards,
		ShardLease:      cfg.ShardLease,
		SeedAssignment:  seedAssign,
		Predict:         p.predSpec,
		SeedModels:      seedModels,
	}
	if cfg.Journal != "" {
		// A durable session fences plan epochs and buffers leaf output, so
		// the recovery path has clean semantics to restore into.
		ccfg.FenceEpochs = true
		ccfg.LeafBuffer = cfg.LeafBufferFrames
		if ccfg.LeafBuffer <= 0 {
			ccfg.LeafBuffer = 64
		}
	}
	if cfg.UseTCP {
		tr, err := transport.NewTCP(p.sys.NodeIDs())
		if err != nil {
			return nil, fmt.Errorf("remo: start TCP transport: %w", err)
		}
		ccfg.Transport = tr
	}
	machine, err := cluster.NewMachine(ccfg)
	if err != nil {
		return nil, fmt.Errorf("remo: start monitor: %w", err)
	}
	mon.planner = p
	mon.adaptor = ad
	mon.machine = machine
	mon.heal = det != nil && (cfg.Failure == nil || !cfg.Failure.DisableRepair)
	mon.builder = core.Builder()
	mon.trace = cfg.Trace
	mon.baseDemand = ad.Demand().Clone()
	mon.dead = make(map[model.NodeID]struct{})
	mon.verifyOn = p.verifyOn
	if cfg.Journal != "" {
		mon.journalDir = cfg.Journal
		mon.jopts = journal.Options{CheckpointEvery: cfg.JournalCheckpointEvery}
		w, err := journal.Create(cfg.Journal, mon.jopts, mon.journalState())
		if err != nil {
			_ = machine.Close()
			return nil, fmt.Errorf("remo: start journal: %w", err)
		}
		mon.journal = w
		if cfg.Shards > 1 {
			mon.shardJournals = make([]*journal.Writer, cfg.Shards)
			for s := range mon.shardJournals {
				sw, err := journal.Create(mon.shardDir(s), mon.jopts, mon.shardJournalState(s))
				if err != nil {
					_ = mon.Close()
					return nil, fmt.Errorf("remo: start shard journal %d: %w", s, err)
				}
				mon.shardJournals[s] = sw
			}
		}
	}
	return mon, nil
}

// shardDir is the journal directory of shard s, under the session's.
func (m *Monitor) shardDir(s int) string {
	return filepath.Join(m.journalDir, fmt.Sprintf("shard-%d", s))
}

// currentDemand computes the planner's demand including frequency
// weighting.
func (p *Planner) currentDemand() *task.Demand {
	d := p.mgr.Demand()
	if p.freqSpec != nil {
		d = p.freqSpec.Apply(d)
	}
	return d
}

// Run executes n collection rounds, applying self-healing between
// rounds: failure-detector verdicts reached during a round trigger an
// automatic topology repair (or reintegration) before the next one.
func (m *Monitor) Run(n int) error {
	for i := 0; i < n; i++ {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return ErrMonitorClosed
		}
		err := m.machine.Step()
		if err == nil {
			m.selfHeal()
			m.journalRound()
			err = m.verifyErr
			if err == nil {
				err = m.journalErr
			}
		}
		m.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// journalRound appends the executed round's accepted values to the WAL
// and checkpoints at the configured cadence. While the collector is
// down nothing is written — a dead collector cannot persist anything,
// which is precisely the window recovery must cover. Called with m.mu
// held.
func (m *Monitor) journalRound() {
	if m.journal == nil {
		return
	}
	if m.machine.CollectorDown() {
		m.pending = m.pending[:0]
		return
	}
	// New dispatcher decisions (orphan re-dispatches, rebalances) are
	// captured as full-assignment records before the samples, so a cold
	// resume rebuilds the identical tree→shard map.
	if m.machine.ShardCount() > 1 {
		if moved := len(m.machine.ShardMoves()); moved > m.movesSeen {
			m.movesSeen = moved
			m.setJournalErr(m.journal.AppendAssignment(m.machine.ShardAssignment()))
		}
	}
	recs := m.pending
	m.pending = m.pending[:0]
	due, err := m.journal.AppendSamples(m.machine.Round()-1, recs)
	if err == nil && due {
		err = m.journal.Checkpoint(m.journalState())
	}
	m.setJournalErr(err)

	// Per-shard journals: a down shard persists nothing — that outage is
	// exactly the window its recovery must cover — and its unjournaled
	// tail is discarded like the single collector's.
	for s := range m.shardJournals {
		srecs := m.shardPending[s]
		m.shardPending[s] = m.shardPending[s][:0]
		if m.machine.ShardDown(s) {
			continue
		}
		due, err := m.shardJournals[s].AppendSamples(m.machine.Round()-1, srecs)
		if err == nil && due {
			err = m.shardJournals[s].Checkpoint(m.shardJournalState(s))
		}
		m.setJournalErr(err)
	}
}

// setJournalErr retains the first journal write failure.
func (m *Monitor) setJournalErr(err error) {
	if err != nil && m.journalErr == nil {
		m.journalErr = fmt.Errorf("remo: journal: %w", err)
	}
}

// journalState snapshots the durable session state. Called with m.mu
// held (or before the monitor is live).
func (m *Monitor) journalState() journal.State {
	s := journal.State{
		Epoch:       m.machine.Epoch(),
		Fingerprint: m.adaptor.Forest().Fingerprint(),
		Round:       m.machine.Round() - 1,
		Failures:    m.failures,
		Recoveries:  m.recoveries,
		Repairs:     len(m.repairs),
		Demand:      m.adaptor.Demand(),
		BaseDemand:  m.baseDemand,
		Partition:   m.adaptor.Partition(),
		Store:       m.repo,
		Dead:        make(map[model.NodeID]int),
	}
	if det := m.machine.Detector(); det != nil {
		s.Dead = det.DeadAt()
	}
	if m.proc != nil {
		s.Cooldowns = m.proc.Cooldowns()
	}
	if m.machine.ShardCount() > 1 {
		s.Assignment = m.machine.ShardAssignment()
	}
	s.Models = m.machine.PredictSnapshots()
	return s
}

// shardJournalState snapshots shard s's durable state: the scoped
// repository of values it collected, under the session's current epoch
// and fingerprint. Called with m.mu held (or before the monitor is
// live).
func (m *Monitor) shardJournalState(s int) journal.State {
	return journal.State{
		Epoch:       m.machine.Epoch(),
		Fingerprint: m.adaptor.Forest().Fingerprint(),
		Round:       m.machine.Round() - 1,
		Store:       m.shardRepos[s],
	}
}

// journalInstall logs a plan install (epoch bump) to the WAL. Called
// with m.mu held.
func (m *Monitor) journalInstall() {
	if m.journal == nil {
		return
	}
	m.setJournalErr(m.journal.AppendEpoch(
		m.machine.Epoch(), m.adaptor.Forest().Fingerprint(), m.adaptor.Demand()))
	// An install retargets the dispatcher (fresh trees get placed), so
	// the assignment in force is re-journaled alongside the epoch.
	if m.machine.ShardCount() > 1 {
		m.movesSeen = len(m.machine.ShardMoves())
		m.setJournalErr(m.journal.AppendAssignment(m.machine.ShardAssignment()))
	}
}

// Fingerprint returns the installed forest's structural fingerprint —
// the identity a resumed session is matched against (ResumeReport.
// PlanMatched).
func (m *Monitor) Fingerprint() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.adaptor.Forest().Fingerprint()
}

// Round returns the next round to execute.
func (m *Monitor) Round() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.machine.Round()
}

// selfHeal consumes the failure detector's verdicts and closes the
// detect→repair→resume loop. Called with m.mu held, between rounds.
func (m *Monitor) selfHeal() {
	verdicts := m.machine.TakeVerdicts()
	if len(verdicts) == 0 {
		return
	}
	if m.journal != nil {
		for _, v := range verdicts {
			m.setJournalErr(m.journal.AppendVerdict(v.Node, v.DeclaredAt, v.Recovered))
		}
	}
	var failed, recovered []NodeID
	detection := 0
	for _, v := range verdicts {
		if v.Recovered {
			recovered = append(recovered, v.Node)
			continue
		}
		failed = append(failed, v.Node)
		if lag := v.DeclaredAt - v.LastHeard; lag > detection {
			detection = lag
		}
	}
	m.failures += len(failed)
	m.recoveries += len(recovered)
	if !m.heal {
		// Detection-only mode still tracks the dead set for reporting.
		for _, n := range failed {
			m.dead[n] = struct{}{}
		}
		for _, n := range recovered {
			delete(m.dead, n)
		}
		return
	}
	if len(failed) > 0 {
		m.repairFailed(failed, detection)
	}
	if len(recovered) > 0 {
		m.reintegrate(recovered)
	}
	m.verifySwap()
}

// verifySwap cross-checks the topology the self-healing loop just
// installed. Called with m.mu held; the first failure is retained and
// surfaced by Run and Verify.
func (m *Monitor) verifySwap() {
	if !m.verifyOn || m.verifyErr != nil {
		return
	}
	ctx := verify.Context{
		Sys:     m.planner.sys,
		Demand:  m.adaptor.Demand(),
		Spec:    m.planner.aggSpec,
		Resolve: m.planner.resolveAttr,
	}
	if err := verify.Plan(ctx, m.adaptor.Forest()); err != nil {
		m.verifyErr = fmt.Errorf("remo: repaired topology failed verification: %w", err)
	}
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
	if m.verifyErr != nil {
		return m.verifyErr
	}
	ctx := verify.Context{
		Sys:     m.planner.sys,
		Demand:  m.adaptor.Demand(),
		Spec:    m.planner.aggSpec,
		Resolve: m.planner.resolveAttr,
	}
	if err := verify.Plan(ctx, m.adaptor.Forest()); err != nil {
		return fmt.Errorf("remo: live topology failed verification: %w", err)
	}
	if err := verify.Result(ctx, m.machine.Result()); err != nil {
		return fmt.Errorf("remo: live result failed verification: %w", err)
	}
	if m.machine.ShardCount() > 1 {
		st := verify.ShardState{
			Shards:     m.machine.ShardCount(),
			Assignment: m.machine.ShardAssignment(),
			Down:       m.machine.ShardsDownList(),
			Pending:    m.machine.PendingOrphans(),
		}
		if err := verify.Sharding(st, m.adaptor.Forest()); err != nil {
			return fmt.Errorf("remo: sharded tier failed verification: %w", err)
		}
		if err := verify.ShardUnion(m.machine.Result(), m.machine.ShardResults()); err != nil {
			return fmt.Errorf("remo: sharded tier failed verification: %w", err)
		}
	}
	return nil
}

// repairFailed rebuilds the topology around newly declared-dead nodes
// and hot-swaps the healed forest into the running machine.
func (m *Monitor) repairFailed(failed []NodeID, detection int) {
	newlyDead := make(map[model.NodeID]struct{}, len(failed))
	for _, n := range failed {
		newlyDead[n] = struct{}{}
		m.dead[n] = struct{}{}
	}
	// The adaptor's demand is already pruned of earlier failures, so
	// repairing against the newly-dead set alone keeps the accounting
	// incremental.
	healed, rep := repair.Repair(repair.Config{
		Sys:     m.planner.sys,
		Demand:  m.adaptor.Demand(),
		Spec:    m.planner.aggSpec,
		Builder: m.builder,
	}, m.adaptor.Forest(), newlyDead)
	pruned, _ := repair.Prune(m.adaptor.Demand(), newlyDead)
	m.adaptor.Rewire(pruned, healed)
	m.machine.Install(healed, pruned)
	m.journalInstall()

	ev := RepairEvent{
		Round:           m.machine.Round(),
		Failed:          failed,
		DetectionRounds: detection,
		TreesRebuilt:    rep.TreesRebuilt,
		EdgesChanged:    rep.EdgesChanged,
		PairsLost:       rep.PairsLost,
		CoverageAfter:   plannedCoverage(healed, pruned, m.planner),
	}
	m.repairs = append(m.repairs, ev)
	if m.journal != nil {
		m.setJournalErr(m.journal.AppendRepair(ev.Round))
	}
	if m.trace != nil {
		m.trace.Record(trace.Event{
			Round: ev.Round, Kind: trace.Repair,
			Node: model.Central, Values: len(failed),
		})
	}
}

// reintegrate restores recovered nodes' demanded pairs (from the task
// set's base demand) and replans through the adaptor.
func (m *Monitor) reintegrate(recovered []NodeID) {
	for _, n := range recovered {
		delete(m.dead, n)
	}
	restored, _ := repair.Prune(m.baseDemand, m.dead)
	rep := m.adaptor.Apply(restored)
	m.machine.Install(m.adaptor.Forest(), m.adaptor.Demand())
	m.journalInstall()

	ev := RepairEvent{
		Round:         m.machine.Round(),
		Recovered:     recovered,
		EdgesChanged:  rep.AdaptMessages,
		CoverageAfter: plannedCoverage(m.adaptor.Forest(), m.adaptor.Demand(), m.planner),
	}
	m.repairs = append(m.repairs, ev)
	if m.journal != nil {
		m.setJournalErr(m.journal.AppendRepair(ev.Round))
	}
	if m.trace != nil {
		m.trace.Record(trace.Event{
			Round: ev.Round, Kind: trace.Repair,
			Node: model.Central, Values: len(recovered),
		})
	}
}

// plannedCoverage is the percentage of demanded pairs the forest
// collects, per the planner's static stats.
func plannedCoverage(f *plan.Forest, d *task.Demand, p *Planner) float64 {
	total := len(d.Pairs())
	if total == 0 {
		return 100
	}
	st := f.ComputeStats(d, p.sys, p.aggSpec)
	return 100 * float64(st.Collected) / float64(total)
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
	mgr := task.NewManager(
		task.WithSystem(m.planner.sys),
		task.WithAliasResolver(m.planner.resolveAttr),
	)
	for _, t := range tasks {
		if err := mgr.Add(t); err != nil {
			return AdaptReport{}, fmt.Errorf("remo: %w", err)
		}
	}
	d := mgr.Demand()
	if m.planner.freqSpec != nil {
		d = m.planner.freqSpec.Apply(d)
	}
	m.baseDemand = d.Clone()
	if len(m.dead) > 0 {
		d, _ = repair.Prune(d, m.dead)
	}
	rep := m.adaptor.Apply(d)
	diff := m.machine.InstallDiff(m.adaptor.Forest(), m.adaptor.Demand())
	ev := ReplanEvent{
		Round:         m.machine.Round(),
		TreesKept:     len(diff.Kept),
		TreesRebuilt:  len(diff.Rebuilt),
		TreesDropped:  len(diff.Dropped),
		ReusePct:      diff.ReusePct(),
		Incremental:   rep.Replan.Incremental,
		FellBack:      rep.Replan.FellBack,
		PlanTime:      rep.PlanTime,
		AdaptMessages: rep.AdaptMessages,
	}
	m.replans = append(m.replans, ev)
	if m.trace != nil {
		m.trace.Record(trace.Event{
			Round: ev.Round, Kind: trace.Replan,
			Node: model.Central, Values: ev.TreesRebuilt,
		})
	}
	if m.journal != nil {
		m.setJournalErr(m.journal.AppendTasks(m.baseDemand, m.adaptor.Partition(),
			m.adaptor.Forest().Fingerprint(), len(diff.Kept), len(diff.Rebuilt), len(diff.Dropped)))
		m.journalInstall()
	}
	return AdaptReport{
		AdaptMessages:  rep.AdaptMessages,
		PlanTime:       rep.PlanTime,
		CollectedPairs: rep.Stats.Collected,
		Operations:     rep.Operations,
		TreesKept:      ev.TreesKept,
		TreesRebuilt:   ev.TreesRebuilt,
		TreesDropped:   ev.TreesDropped,
		TreeReusePct:   ev.ReusePct,
		Incremental:    ev.Incremental,
		FellBack:       ev.FellBack,
	}, nil
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
// The session must have been started with journaling (MonitorConfig.
// Journal or WithJournal).
func (m *Monitor) Resume(journalDir string) (ResumeReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ResumeReport{}, ErrMonitorClosed
	}
	if m.repo == nil {
		return ResumeReport{}, errors.New("remo: resume: session was started without journaling")
	}
	rec, err := journal.Recover(journalDir)
	if err != nil {
		return ResumeReport{}, fmt.Errorf("remo: resume: %w", err)
	}
	st := rec.State
	m.machine.ResumeCollector(cluster.ResumeState{
		Epoch:  st.Epoch,
		Repo:   st.Store,
		Dead:   st.Dead,
		Models: st.Models,
	})
	m.failures = st.Failures
	m.recoveries = st.Recoveries
	m.dead = make(map[model.NodeID]struct{}, len(st.Dead))
	for n := range st.Dead {
		m.dead[n] = struct{}{}
	}
	if st.BaseDemand != nil && len(st.BaseDemand.Pairs()) > 0 {
		m.baseDemand = st.BaseDemand
	}
	m.repo = st.Store
	if m.proc != nil && st.Cooldowns != nil {
		m.proc.RestoreCooldowns(st.Cooldowns)
	}
	m.pending = m.pending[:0]
	m.restarts++

	if m.journal != nil {
		_ = m.journal.Close()
	}
	m.journalDir = journalDir
	w, err := journal.Create(journalDir, m.jopts, m.journalState())
	if err != nil {
		return ResumeReport{}, fmt.Errorf("remo: resume: %w", err)
	}
	m.journal = w
	m.journalErr = nil
	return ResumeReport{
		Epoch:            m.machine.Epoch(),
		RecoveredRound:   rec.LastRound,
		RecoveredSamples: st.Store.Len(),
		ReplayedRecords:  rec.Replayed,
		TornTail:         rec.Torn,
		PlanMatched:      m.adaptor.Forest().Fingerprint() == st.Fingerprint,
	}, nil
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
	if m.shardJournals == nil {
		return ResumeReport{}, errors.New("remo: resume shard: session is not sharded or not journaled")
	}
	if s < 0 || s >= len(m.shardJournals) {
		return ResumeReport{}, fmt.Errorf("remo: resume shard: shard %d out of [0,%d)", s, len(m.shardJournals))
	}
	rec, err := journal.Recover(m.shardDir(s))
	if err != nil {
		return ResumeReport{}, fmt.Errorf("remo: resume shard %d: %w", s, err)
	}
	st := rec.State
	if err := m.machine.ResumeShard(s, cluster.ResumeState{
		Epoch:  st.Epoch,
		Repo:   st.Store,
		Models: st.Models,
	}); err != nil {
		return ResumeReport{}, fmt.Errorf("remo: resume shard %d: %w", s, err)
	}
	m.shardRepos[s] = st.Store
	m.shardPending[s] = m.shardPending[s][:0]
	m.restarts++

	if m.shardJournals[s] != nil {
		_ = m.shardJournals[s].Close()
	}
	w, err := journal.Create(m.shardDir(s), m.jopts, m.shardJournalState(s))
	if err != nil {
		return ResumeReport{}, fmt.Errorf("remo: resume shard %d: %w", s, err)
	}
	m.shardJournals[s] = w
	return ResumeReport{
		Epoch:            m.machine.Epoch(),
		RecoveredRound:   rec.LastRound,
		RecoveredSamples: st.Store.Len(),
		ReplayedRecords:  rec.Replayed,
		TornTail:         rec.Torn,
		PlanMatched:      m.adaptor.Forest().Fingerprint() == st.Fingerprint,
	}, nil
}

// ResumeMonitor cold-starts a monitoring session from a journal: the
// recovered installed demand is replanned, a fresh machine boots at
// round zero, and the collector is seeded with the journal's store,
// dead set and epoch. Use it when the whole process died; the
// round clock restarts, so recovered dead declarations are anchored at
// -1 (any fresh evidence of life resurrects) and recovered views are
// clamped below round zero.
func (p *Planner) ResumeMonitor(journalDir string, cfg MonitorConfig) (*Monitor, ResumeReport, error) {
	rec, err := journal.Recover(journalDir)
	if err != nil {
		return nil, ResumeReport{}, fmt.Errorf("remo: resume: %w", err)
	}
	st := rec.State
	cfg.Journal = journalDir
	demand := st.Demand
	if demand == nil || len(demand.Pairs()) == 0 {
		demand = p.currentDemand()
	}
	// Per-shard journals must be read before startMonitor re-seals them
	// with fresh (empty) checkpoints. A missing or unreadable shard
	// journal degrades to a cold shard, not a failed resume.
	var shardRecs []*journal.Recovered
	if cfg.Shards > 1 {
		shardRecs = make([]*journal.Recovered, cfg.Shards)
		for s := range shardRecs {
			dir := filepath.Join(journalDir, fmt.Sprintf("shard-%d", s))
			if sr, err := journal.Recover(dir); err == nil {
				shardRecs[s] = sr
			}
		}
	}
	mon, err := p.startMonitor(cfg, demand, st.Partition, st.Assignment, st.Models)
	if err != nil {
		return nil, ResumeReport{}, err
	}
	if st.BaseDemand != nil && len(st.BaseDemand.Pairs()) > 0 {
		mon.baseDemand = st.BaseDemand
	}
	mon.failures = st.Failures
	mon.recoveries = st.Recoveries
	mon.dead = make(map[model.NodeID]struct{}, len(st.Dead))
	coldDead := make(map[model.NodeID]int, len(st.Dead))
	for n := range st.Dead {
		mon.dead[n] = struct{}{}
		coldDead[n] = -1
	}
	mon.repo = st.Store
	if mon.proc != nil && st.Cooldowns != nil {
		mon.proc.RestoreCooldowns(st.Cooldowns)
	}
	mon.restarts = 1
	if mon.machine.ShardCount() > 1 {
		// Sharded cold resume: each shard's views are seeded from its own
		// journal (the main journal's assignment already rebuilt the
		// tree→shard map via SeedAssignment), fenced past both the
		// session epoch and the shard's journaled one.
		for s, sr := range shardRecs {
			if sr == nil {
				continue
			}
			sst := sr.State
			epoch := st.Epoch
			if sst.Epoch > epoch {
				epoch = sst.Epoch
			}
			if err := mon.machine.ResumeShard(s, cluster.ResumeState{
				Epoch: epoch,
				Repo:  sst.Store,
			}); err != nil {
				_ = mon.Close()
				return nil, ResumeReport{}, fmt.Errorf("remo: resume shard %d: %w", s, err)
			}
			mon.shardRepos[s] = sst.Store
		}
	} else {
		mon.machine.ResumeCollector(cluster.ResumeState{
			Epoch: st.Epoch,
			Repo:  st.Store,
			Dead:  coldDead,
		})
	}
	// Re-seal the journals with the recovered (not empty) state.
	if err := mon.journal.Checkpoint(mon.journalState()); err != nil {
		_ = mon.Close()
		return nil, ResumeReport{}, fmt.Errorf("remo: resume: %w", err)
	}
	for s := range mon.shardJournals {
		if err := mon.shardJournals[s].Checkpoint(mon.shardJournalState(s)); err != nil {
			_ = mon.Close()
			return nil, ResumeReport{}, fmt.Errorf("remo: resume shard %d: %w", s, err)
		}
	}
	return mon, ResumeReport{
		Epoch:            mon.machine.Epoch(),
		RecoveredRound:   rec.LastRound,
		RecoveredSamples: st.Store.Len(),
		ReplayedRecords:  rec.Replayed,
		TornTail:         rec.Torn,
		PlanMatched:      mon.adaptor.Forest().Fingerprint() == st.Fingerprint,
	}, nil
}

// Store exposes the session's value repository (nil unless the session
// journals). It retains every collected value and is the state
// checkpointed for crash recovery.
func (m *Monitor) Store() *Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.repo
}

// Plan exposes the topology currently in force.
func (m *Monitor) Plan() *Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return planFromForest(m.planner, m.adaptor.Forest(), m.adaptor.Demand())
}

// Failed lists the nodes currently declared dead, in ID order.
func (m *Monitor) Failed() []NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeID, 0, len(m.dead))
	for n := range m.dead {
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
	res := m.machine.Result()
	rep := reportFromResult(res)
	rep.FailuresDetected = m.failures
	rep.NodesRecovered = m.recoveries
	rep.Repairs = append([]RepairEvent(nil), m.repairs...)
	rep.Replans = append([]ReplanEvent(nil), m.replans...)
	rep.CollectorRestarts = m.restarts
	rep.Redispatches = m.redispatchEvents()
	return rep
}

// redispatchEvents converts the dispatcher's move log for reporting.
// Called with m.mu held.
func (m *Monitor) redispatchEvents() []RedispatchEvent {
	moves := m.machine.ShardMoves()
	if len(moves) == 0 {
		return nil
	}
	out := make([]RedispatchEvent, len(moves))
	for i, mv := range moves {
		out[i] = RedispatchEvent{
			Round:     mv.Round,
			TreeKey:   mv.Key,
			FromShard: mv.From,
			ToShard:   mv.To,
		}
	}
	return out
}

// ShardCount returns the number of collector shards (0 for a
// single-collector session).
func (m *Monitor) ShardCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.machine.ShardCount()
}

// ShardAssignment snapshots the dispatcher's tree→shard map (nil for
// single-collector sessions). Orphans awaiting re-dispatch are included,
// booked to the dead shard they came from.
func (m *Monitor) ShardAssignment() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.machine.ShardAssignment()
}

// ShardLeader returns the dispatcher's current leaseholder (-1 for
// single-collector sessions).
func (m *Monitor) ShardLeader() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.machine.ShardLeader()
}

// CollectorDown reports whether the central collector is currently in
// a crash window (chaos-injected or otherwise). A serve-mode backend
// polls it to decide when to auto-resume from the journal.
func (m *Monitor) CollectorDown() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.machine.CollectorDown()
}

// JournalDir returns the session's journal directory ("" for
// non-durable sessions).
func (m *Monitor) JournalDir() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journalDir
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
	if m.journal == nil {
		return errors.New("remo: checkpoint: session was started without journaling")
	}
	if err := m.journal.Checkpoint(m.journalState()); err != nil {
		return fmt.Errorf("remo: checkpoint: %w", err)
	}
	for s, w := range m.shardJournals {
		if w == nil || m.machine.ShardDown(s) {
			continue
		}
		if err := w.Checkpoint(m.shardJournalState(s)); err != nil {
			return fmt.Errorf("remo: checkpoint shard %d: %w", s, err)
		}
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
	if m.journal != nil {
		// Seal a final checkpoint so a clean shutdown resumes exactly.
		_ = m.journal.Checkpoint(m.journalState())
		_ = m.journal.Close()
		m.journal = nil
	}
	for s, w := range m.shardJournals {
		if w == nil {
			continue
		}
		if !m.machine.ShardDown(s) {
			_ = w.Checkpoint(m.shardJournalState(s))
		}
		_ = w.Close()
	}
	m.shardJournals = nil
	return m.machine.Close()
}
