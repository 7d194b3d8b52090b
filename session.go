package remo

import (
	"errors"
	"fmt"
	"maps"

	"remo/internal/adapt"
	"remo/internal/agg"
	"remo/internal/cluster"
	"remo/internal/detect"
	"remo/internal/journal"
	"remo/internal/model"
	"remo/internal/partition"
	"remo/internal/plan"
	"remo/internal/repair"
	"remo/internal/store"
	"remo/internal/task"
	"remo/internal/trace"
	"remo/internal/transport"
	"remo/internal/tree"
	"remo/internal/verify"
)

// leafBufferFrames bounds each node's outgoing buffer in a journaled
// session.
const leafBufferFrames = 64

// session is the one owner of a live session's state: the adaptor's
// plan, the running machine, the self-healing history and the durable
// log. Self-heal, task swaps, shard resume and the region checks all
// read and write this copy. It holds no lock — Monitor serializes every
// call under its mutex, save a SetTasks' planning, which only reads the
// adaptor (see planning).
type session struct {
	planner *Planner
	adaptor *adapt.Adaptor
	machine *cluster.Machine
	// tr is the TCP transport the session opened and therefore closes
	// (nil over memory: the machine owns the transport it defaults to).
	tr transport.Transport

	// heal enables automatic repair (false = detect and report only).
	heal    bool
	builder tree.Builder
	trace   *TraceRecorder
	// baseDemand is the demand of the task set in force before failure
	// pruning — the target to restore when nodes recover.
	baseDemand *task.Demand
	// dead tracks declared-dead nodes already pruned from the topology.
	dead map[model.NodeID]struct{}
	// planning is set while a SetTasks plans with the mutex released. The
	// adaptor is then read-only to everyone else: self-heal still journals
	// and counts verdicts and keeps dead current, but leaves the repairs
	// to the commit (reconcile), and healLag keeps the longest detection
	// lag among the failures it deferred.
	planning bool
	healLag  int

	// fp, cur and failed are what views share with their readers: the
	// installed forest's fingerprint and facade plan (adopt) and the dead
	// set in ID order (deadChanged). Replaced, never edited; cached here
	// so publishing a view is O(1) however large the forest is.
	fp     uint64
	cur    *Plan
	failed []NodeID

	failures, recoveries int
	// restarts counts successful collector and shard resumes.
	restarts int
	repairs  []RepairEvent
	// replans records every task swap's plan diff.
	replans []ReplanEvent
	// verifyErr is the first verification failure of a topology the
	// self-healing loop installed (surfaced by step and verify).
	verifyErr error

	// log is nil unless the session journals: one journal in
	// MonitorConfig.Journal, whatever the shard count.
	log *durableLog
	// proc, when provided, is fed every collected value and, in a
	// journaling session, has its trigger re-arm state checkpointed.
	proc    *store.Processor
	onValue func(pair Pair, round int, value float64)
	// batch is the current round's accepted values, in the order the
	// collection tier accepted them: observe appends, and the round
	// hands the batch to each consumer once (handOff, appendRound).
	batch []journal.SampleRec
	// journalErr is the first journal write failure (surfaced by step).
	journalErr error
	// movesSeen is how many dispatcher moves the log has captured as
	// assignment records.
	movesSeen int
}

// durableLog is one journal directory and what it persists: a
// repository of every value collected behind it, which is both the
// queryable store and the state checkpointed.
type durableLog struct {
	dir    string
	writer *journal.Writer
	repo   *store.Store
}

// startSession boots a session over the given demand (the planner's
// current demand normally, a journal-recovered one on cold resume). The
// seed's partition, when valid for the demand's universe, rebuilds a
// known forest instead of searching: the last searched Plan's on a
// fresh start, the exact pre-crash forest on a cold resume. A cold
// resume also passes the rest of the recovered state: its assignment
// seeds the dispatcher's tree→shard map; its model snapshots seed both
// ends of the forecasting replicas, so lockstep holds from round zero.
func (p *Planner) startSession(cfg MonitorConfig, demand *task.Demand, seed journal.State) (*session, error) {
	if err := cfg.Chaos.Validate(p.sys, cfg.Shards, cfg.Journal != ""); err != nil {
		return nil, fmt.Errorf("remo: start monitor: %w", err)
	}
	scheme := cfg.Scheme
	if scheme == "" {
		scheme = AdaptIncremental
	}
	core := p.corePlanner()
	ad := adapt.New(scheme, core, p.sys)
	if p.baseline != BaselineNone {
		ad.Fix(p.seedFor)
	}
	if len(seed.Partition) > 0 && partition.Validate(seed.Partition, demand.Universe()) == nil {
		ad.InitPartition(demand, seed.Partition)
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
	s := &session{
		planner:    p,
		adaptor:    ad,
		heal:       det != nil && (cfg.Failure == nil || !cfg.Failure.DisableRepair),
		builder:    core.Builder(),
		trace:      cfg.Trace,
		baseDemand: ad.Demand().Clone(),
		dead:       make(map[model.NodeID]struct{}),
		proc:       cfg.Processor,
		onValue:    cfg.OnValue,
	}
	s.adopt()
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
		Observer:        s.observe,
		Trace:           cfg.Trace,
		Shards:          cfg.Shards,
		SeedAssignment:  seed.Assignment,
		Predict:         p.predSpec,
		SeedModels:      seed.Models,
	}
	if cfg.Journal != "" {
		// A durable session buffers leaf output across collector outages,
		// so the recovery path has clean semantics to restore into.
		ccfg.LeafBuffer = leafBufferFrames
		s.log = &durableLog{dir: cfg.Journal, repo: store.New(0)}
	}
	if cfg.UseTCP {
		tr, err := transport.NewTCP(p.sys.NodeIDs())
		if err != nil {
			return nil, fmt.Errorf("remo: start TCP transport: %w", err)
		}
		s.tr, ccfg.Transport = tr, tr
	}
	var err error
	if s.machine, err = cluster.NewMachine(ccfg); err != nil {
		_ = s.close()
		return nil, fmt.Errorf("remo: start monitor: %w", err)
	}
	if s.log != nil {
		if err := s.reopen(); err != nil {
			_ = s.close()
			return nil, fmt.Errorf("remo: start journal: %w", err)
		}
	}
	return s, nil
}

// observe receives every value the collection tier accepts, whether or
// not the session journals, into the round's batch.
func (s *session) observe(pair Pair, round int, value float64) {
	s.batch = append(s.batch, journal.SampleRec{Pair: pair, Round: round, Value: value})
}

// step executes one collection round and hands the values it accepted
// on, then closes the self-healing loop and journals the round before
// the next one.
func (s *session) step() error {
	s.batch = s.batch[:0]
	err := s.machine.Step()
	s.handOff()
	if err != nil {
		return err
	}
	s.selfHeal()
	s.appendRound()
	if s.verifyErr != nil {
		return s.verifyErr
	}
	return s.journalErr
}

// handOff passes the round's batch to its consumers in turn: the
// trigger processor (skipped when no trigger is set) and the caller's
// OnValue, record by record, so a record's alert precedes its value;
// then the log's store, under one lock. The WAL takes the batch in
// appendRound. No lock is held across a callback.
func (s *session) handOff() {
	armed := s.proc != nil && s.proc.HasTriggers()
	if armed || s.onValue != nil {
		for _, r := range s.batch {
			if armed {
				s.proc.Observe(r.Pair, r.Round, r.Value)
			}
			if s.onValue != nil {
				s.onValue(r.Pair, r.Round, r.Value)
			}
		}
	}
	if s.log != nil {
		s.log.repo.ObserveBatch(s.batch)
	}
}

// appendRound appends the executed round's accepted values to the WAL
// and checkpoints when the journal says one is due. A down lone collector
// persists nothing — that outage is precisely the window its recovery
// must cover — and its unjournaled tail is discarded. A sharded tier's
// root never dies, so its log never stops: a crashed shard's values
// simply stop arriving.
func (s *session) appendRound() {
	l := s.log
	if l == nil {
		return
	}
	if s.machine.CollectorDown() {
		return
	}
	// New dispatcher decisions (orphan re-dispatches, rebalances) are
	// captured as full-assignment records before the samples, so a cold
	// resume rebuilds the identical tree→shard map.
	if s.machine.ShardCount() > 1 {
		if moved := len(s.machine.ShardMoves()); moved > s.movesSeen {
			s.movesSeen = moved
			s.noteJournal(l.writer.AppendAssignment(s.machine.ShardAssignment()))
		}
	}
	due, err := l.writer.AppendSamples(s.machine.Round()-1, s.batch)
	if err == nil && due {
		s.retire()
		err = l.writer.Checkpoint(s.state())
	}
	s.noteJournal(err)
}

// retire drops from the repository every series that no installed task
// asks for and that has taken no sample for a ring's worth of rounds.
// It runs just before a checkpoint is encoded, so the live store and the
// checkpoint lose the same series at once and a resume, which replays
// the WAL onto that checkpoint, recovers the live store. Series are
// keyed by alias-resolved pair, and an aggregated attribute's are kept
// under whichever node delivered its aggregate, for as long as the
// attribute is demanded.
func (s *session) retire() {
	pairs := make(map[model.Pair]struct{})
	aggs := make(map[model.AttrID]struct{})
	for _, p := range s.adaptor.Demand().Pairs() {
		orig := s.planner.resolveAttr(p.Attr)
		if s.planner.aggSpec.KindOf(orig) != agg.Holistic {
			aggs[orig] = struct{}{}
		} else {
			pairs[model.Pair{Node: p.Node, Attr: orig}] = struct{}{}
		}
	}
	repo := s.log.repo
	repo.Retire(s.machine.Round()-1-repo.Capacity(), func(p model.Pair) bool {
		_, demanded := pairs[p]
		_, aggregated := aggs[p.Attr]
		return demanded || aggregated
	})
}

// noteJournal retains the first journal write failure.
func (s *session) noteJournal(err error) {
	if err != nil && s.journalErr == nil {
		s.journalErr = fmt.Errorf("remo: journal: %w", err)
	}
}

// state snapshots what the log checkpoints: everything a restarted
// collector cannot re-derive from configuration.
func (s *session) state() journal.State {
	st := journal.State{
		Epoch:       s.machine.Epoch(),
		Fingerprint: s.fp,
		Round:       s.machine.Round() - 1,
		Store:       s.log.repo,
	}
	st.Failures, st.Recoveries, st.Repairs = s.failures, s.recoveries, len(s.repairs)
	st.Demand, st.BaseDemand = s.adaptor.Demand(), s.baseDemand
	st.Partition = s.adaptor.Partition()
	st.Dead = make(map[model.NodeID]int)
	if det := s.machine.Detector(); det != nil {
		st.Dead = det.DeadAt()
	}
	if s.proc != nil {
		st.Cooldowns = s.proc.Cooldowns()
	}
	if s.machine.ShardCount() > 1 {
		st.Assignment = s.machine.ShardAssignment()
	}
	st.Models = s.machine.PredictSnapshots()
	return st
}

// reopen starts a fresh journal in the log's directory, sealing the
// current state as its first checkpoint; an existing journal there is
// superseded.
func (s *session) reopen() error {
	l := s.log
	if l.writer != nil {
		_ = l.writer.Close()
	}
	w, err := journal.Create(l.dir, journal.Options{}, s.state())
	if err != nil {
		return err
	}
	l.writer = w
	return nil
}

// checkpoint seals the log's current state now, off the usual cadence.
func (s *session) checkpoint() error {
	if err := s.log.writer.Checkpoint(s.state()); err != nil {
		return fmt.Errorf("checkpoint %s: %w", s.log.dir, err)
	}
	return nil
}

// close seals a final checkpoint, so a clean shutdown resumes exactly,
// and releases the journals, the machine and the transport.
func (s *session) close() error {
	var err error
	if s.machine != nil {
		if s.log != nil && s.log.writer != nil {
			_ = s.checkpoint()
			_ = s.log.writer.Close()
		}
		err = s.machine.Close()
	}
	if s.tr != nil {
		if cerr := s.tr.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// install hot-swaps the adaptor's topology into the running machine and
// logs the swap: a task swap logs the new base demand and the partition
// behind the plan first, every swap logs the epoch it opened and — an
// install retargets the dispatcher — the assignment then in force.
func (s *session) install(taskSwap bool) plan.Diff {
	demand := s.adaptor.Demand()
	diff := s.machine.InstallDiff(s.adaptor.Forest(), demand)
	s.adopt()
	if s.log == nil {
		return diff
	}
	w, fp := s.log.writer, s.fp
	if taskSwap {
		s.noteJournal(w.AppendTasks(s.baseDemand, s.adaptor.Partition(), fp,
			len(diff.Kept), len(diff.Rebuilt), len(diff.Dropped)))
	}
	s.noteJournal(w.AppendEpoch(s.machine.Epoch(), fp, demand))
	if s.machine.ShardCount() > 1 {
		s.movesSeen = len(s.machine.ShardMoves())
		s.noteJournal(w.AppendAssignment(s.machine.ShardAssignment()))
	}
	return diff
}

// adopt recomputes what depends on the adaptor's forest alone.
func (s *session) adopt() {
	s.fp = s.adaptor.Forest().Fingerprint()
	s.cur = planFromForest(s.planner, s.builder, s.adaptor.Forest(), s.adaptor.Demand())
}

// deadChanged re-lists the dead set for readers.
func (s *session) deadChanged() {
	s.failed = make([]NodeID, 0, len(s.dead))
	for n := range s.dead {
		s.failed = append(s.failed, n)
	}
	model.SortNodes(s.failed)
}

// view is the session's read side as of now, for Monitor to publish. It
// must stay O(1): a field that needs a walk belongs behind the mutex,
// not here. machine.Result is one: it keeps nothing per round run, but
// it visits every node and every demanded pair.
func (s *session) view() *MonitorView {
	v := &MonitorView{
		Round:         s.machine.Round(),
		Fingerprint:   s.fp,
		Plan:          s.cur,
		CollectorDown: s.machine.CollectorDown(),
		Failed:        s.failed,
		ShardCount:    s.machine.ShardCount(),
		ShardLeader:   s.machine.ShardLeader(),
	}
	if s.log != nil {
		v.Store, v.JournalDir = s.log.repo, s.log.dir
	}
	return v
}

// record traces a session-level event at the collector.
func (s *session) record(kind trace.Kind, values int) {
	if s.trace != nil {
		s.trace.Record(trace.Event{Round: s.machine.Round(), Kind: kind, Node: model.Central, Values: values})
	}
}

// selfHeal consumes the failure detector's verdicts and closes the
// detect→repair→resume loop between rounds.
func (s *session) selfHeal() {
	verdicts := s.machine.TakeVerdicts()
	if len(verdicts) == 0 {
		return
	}
	var failed, recovered []NodeID
	detection := 0
	for _, v := range verdicts {
		if s.log != nil {
			s.noteJournal(s.log.writer.AppendVerdict(v.Node, v.DeclaredAt, v.Recovered))
		}
		if v.Recovered {
			recovered = append(recovered, v.Node)
			continue
		}
		failed = append(failed, v.Node)
		if lag := v.DeclaredAt - v.LastHeard; lag > detection {
			detection = lag
		}
	}
	s.failures += len(failed)
	s.recoveries += len(recovered)
	for _, n := range failed {
		s.dead[n] = struct{}{}
	}
	for _, n := range recovered {
		delete(s.dead, n)
	}
	s.deadChanged()
	if s.planning {
		s.healLag = max(s.healLag, detection)
		return // the commit reconciles the plan with the dead set
	}
	s.applyHeals(failed, recovered, detection)
}

// applyHeals repairs the topology around failed nodes and reintegrates
// recovered ones, then verifies what it installed when armed. A
// detection-only session tracks the dead set for reporting and leaves
// the topology alone.
func (s *session) applyHeals(failed, recovered []NodeID, detection int) {
	if !s.heal || len(failed)+len(recovered) == 0 {
		return
	}
	if len(failed) > 0 {
		s.repairFailed(failed, detection)
	}
	if len(recovered) > 0 {
		s.reintegrate(recovered)
	}
	if s.planner.verifyOn && s.verifyErr == nil {
		if err := verify.Plan(s.verifyContext(s.adaptor.Demand()), s.adaptor.Forest()); err != nil {
			s.verifyErr = fmt.Errorf("remo: repaired topology failed verification: %w", err)
		}
	}
}

// repairFailed rebuilds the topology around newly declared-dead nodes
// and hot-swaps the healed forest in.
func (s *session) repairFailed(failed []NodeID, detection int) {
	newlyDead := make(map[model.NodeID]struct{}, len(failed))
	for _, n := range failed {
		newlyDead[n] = struct{}{}
	}
	// The adaptor's demand is already pruned of earlier failures, so
	// repairing against the newly-dead set alone keeps the accounting
	// incremental.
	healed, rep := repair.Repair(repair.Config{
		Sys:     s.planner.sys,
		Demand:  s.adaptor.Demand(),
		Spec:    s.planner.aggSpec,
		Builder: s.builder,
	}, s.adaptor.Forest(), newlyDead)
	pruned, _ := repair.Prune(s.adaptor.Demand(), newlyDead)
	s.adaptor.Rewire(pruned, healed)
	s.installRepair(RepairEvent{
		Failed:          failed,
		DetectionRounds: detection,
		TreesRebuilt:    rep.TreesRebuilt,
		EdgesChanged:    rep.EdgesChanged,
		PairsLost:       rep.PairsLost,
	})
}

// reintegrate restores recovered nodes' demanded pairs (from the task
// set's base demand) and replans through the adaptor. When that demand
// is the one in force before the failure's repair — a single-node flap,
// task swaps during the outage included — the adaptor restores the
// plan the repair set aside instead of searching inside the round.
func (s *session) reintegrate(recovered []NodeID) {
	restored, _ := repair.Prune(s.baseDemand, s.dead)
	rep := s.adaptor.Apply(restored)
	s.installRepair(RepairEvent{Recovered: recovered, EdgesChanged: rep.AdaptMessages})
}

// installRepair installs the topology a repair left in the adaptor and
// records the event.
func (s *session) installRepair(ev RepairEvent) {
	s.install(false)
	ev.Round = s.machine.Round()
	ev.CoverageAfter = s.plannedCoverage()
	s.repairs = append(s.repairs, ev)
	if s.log != nil {
		s.noteJournal(s.log.writer.AppendRepair(ev.Round))
	}
	s.record(trace.Repair, len(ev.Failed)+len(ev.Recovered))
}

// plannedCoverage is the percentage of demanded pairs the installed
// forest collects, per the planner's static stats.
func (s *session) plannedCoverage() float64 {
	total := s.cur.DemandedPairs()
	if total == 0 {
		return 100
	}
	return 100 * float64(s.cur.CollectedPairs()) / float64(total)
}

// replan is what a SetTasks snapshots to plan on: the task set's demand
// before and after pruning the dead set, and that dead set.
type replan struct {
	base, demand *task.Demand
	dead         map[model.NodeID]struct{}
}

// beginReplan is SetTasks' locked first step: resolve the task set's
// demand, prune the dead set from it, and snapshot that dead set.
func (s *session) beginReplan(tasks []Task) (replan, error) {
	d, err := s.planner.demandFor(tasks)
	if err != nil {
		return replan{}, err
	}
	r := replan{base: d.Clone(), demand: d, dead: maps.Clone(s.dead)}
	if len(s.dead) > 0 {
		r.demand, _ = repair.Prune(d, s.dead)
	}
	s.planning = true
	return r, nil
}

// commitReplan is SetTasks' locked last step: install the plan made on
// r, adopt its task set as the base demand — only now, so a checkpoint
// taken while it planned describes the plan then in force — and
// reconcile the plan with the verdicts reached meanwhile.
func (s *session) commitReplan(r replan, p adapt.Proposal) AdaptReport {
	s.planning = false
	s.baseDemand = r.base
	rep := adaptReportFrom(s.adaptor.Commit(p), s.install(true))
	s.replans = append(s.replans, ReplanEvent{
		Round:         s.machine.Round(),
		TreesKept:     rep.TreesKept,
		TreesRebuilt:  rep.TreesRebuilt,
		TreesDropped:  rep.TreesDropped,
		ReusePct:      rep.TreeReusePct,
		Incremental:   rep.Incremental,
		FellBack:      rep.FellBack,
		PlanTime:      rep.PlanTime,
		AdaptMessages: rep.AdaptMessages,
	})
	s.record(trace.Replan, rep.TreesRebuilt)
	s.reconcile(r.dead)
	return rep
}

// reconcile heals what the detector decided while a plan was made
// against the dead set planned: nodes dead now but not then are repaired
// around, nodes dead then but alive now are reintegrated.
func (s *session) reconcile(planned map[model.NodeID]struct{}) {
	lag := s.healLag
	s.healLag = 0
	var failed, recovered []NodeID
	for n := range s.dead {
		if _, ok := planned[n]; !ok {
			failed = append(failed, n)
		}
	}
	for n := range planned {
		if _, ok := s.dead[n]; !ok {
			recovered = append(recovered, n)
		}
	}
	model.SortNodes(failed)
	model.SortNodes(recovered)
	s.applyHeals(failed, recovered, lag)
}

// verifyContext is what the verification harness checks the installed
// topology against: the installed demand for the live checks, the base
// demand for the region checks, so lost pairs count as lost rather than
// silently dropping out with the pruned demand.
func (s *session) verifyContext(d *task.Demand) verify.Context {
	return verify.Context{
		Sys:     s.planner.sys,
		Demand:  d,
		Spec:    s.planner.aggSpec,
		Resolve: s.planner.resolveAttr,
	}
}

// verify is Monitor.Verify.
func (s *session) verify() error {
	if s.verifyErr != nil {
		return s.verifyErr
	}
	ctx, forest, res := s.verifyContext(s.adaptor.Demand()), s.adaptor.Forest(), s.machine.Result()
	if fp := forest.Fingerprint(); fp != s.fp || s.cur.res.Forest != forest {
		return fmt.Errorf("remo: published plan (fingerprint %#x) is not the installed forest (%#x)", s.fp, fp)
	}
	if err := verify.Plan(ctx, forest); err != nil {
		return fmt.Errorf("remo: live topology failed verification: %w", err)
	}
	if err := verify.Result(ctx, res); err != nil {
		return fmt.Errorf("remo: live result failed verification: %w", err)
	}
	err := verify.Sharding(verify.ShardState{
		Shards:     s.machine.ShardCount(),
		Assignment: s.machine.ShardAssignment(),
		Dead:       s.machine.ShardsDead(),
		Pending:    s.machine.PendingOrphans(),
	}, forest)
	if err == nil {
		err = verify.ShardUnion(res, s.machine.ShardResults())
	}
	if err != nil {
		return fmt.Errorf("remo: collection tier failed verification: %w", err)
	}
	return nil
}

// report is Monitor.Report.
func (s *session) report() DeployReport {
	rep := DeployReport{
		CollectionResult:  s.machine.Result(),
		FailuresDetected:  s.failures,
		NodesRecovered:    s.recoveries,
		Repairs:           append([]RepairEvent(nil), s.repairs...),
		Replans:           append([]ReplanEvent(nil), s.replans...),
		CollectorRestarts: s.restarts,
	}
	for _, mv := range s.machine.ShardMoves() {
		rep.Redispatches = append(rep.Redispatches, RedispatchEvent{
			Round: mv.Round, TreeKey: mv.Key, FromShard: mv.From, ToShard: mv.To,
		})
	}
	return rep
}

// restore adopts the session-wide history a journal recovered.
func (s *session) restore(st journal.State) {
	s.failures, s.recoveries = st.Failures, st.Recoveries
	s.dead = make(map[model.NodeID]struct{}, len(st.Dead))
	for n := range st.Dead {
		s.dead[n] = struct{}{}
	}
	s.deadChanged()
	if st.BaseDemand != nil && len(st.BaseDemand.Pairs()) > 0 {
		s.baseDemand = st.BaseDemand
	}
	if s.proc != nil && st.Cooldowns != nil {
		s.proc.RestoreCooldowns(st.Cooldowns)
	}
}

// resumeState is what a collector restarts from: views rebuilt strictly
// from the recovered repository (never from the dead collector's
// memory), and trees opening an epoch past the journaled one, fencing
// every frame the dead collector could have been sent.
func resumeState(st journal.State, dead map[model.NodeID]int) cluster.ResumeState {
	return cluster.ResumeState{Epoch: st.Epoch, Repo: st.Store, Dead: dead, Models: st.Models}
}

// resumeCollector is Monitor.Resume: restart the crashed lone collector
// from the journal, adopt the recovered repository and history, and
// re-arm journaling into the same directory.
func (s *session) resumeCollector() (ResumeReport, error) {
	if s.log == nil {
		return ResumeReport{}, errors.New("session was started without journaling")
	}
	if !s.machine.CollectorDown() {
		return ResumeReport{}, errors.New("the collector is not down")
	}
	rec, err := journal.Recover(s.log.dir)
	if err != nil {
		return ResumeReport{}, err
	}
	if err := s.machine.ResumeCollector(resumeState(rec.State, rec.State.Dead)); err != nil {
		return ResumeReport{}, err
	}
	s.restore(rec.State)
	s.restarts++
	s.log.repo = rec.State.Store
	if err := s.reopen(); err != nil {
		return ResumeReport{}, err
	}
	s.journalErr = nil
	return s.resumeReport(rec), nil
}

// resumeShard is Monitor.ResumeShard: seed the shard from a read-only
// recovery of the session's journal. The writer stays as it is — the
// tier's root never stopped writing, and every record is synced by the
// end of a round.
func (s *session) resumeShard(sh int) (ResumeReport, error) {
	if s.log == nil || s.machine.ShardCount() < 2 {
		return ResumeReport{}, errors.New("session is not sharded or not journaled")
	}
	if sh < 0 || sh >= s.machine.ShardCount() {
		return ResumeReport{}, fmt.Errorf("shard out of [0,%d)", s.machine.ShardCount())
	}
	rec, err := journal.Recover(s.log.dir)
	if err != nil {
		return ResumeReport{}, err
	}
	if err := s.machine.ResumeShard(sh, resumeState(rec.State, nil)); err != nil {
		return ResumeReport{}, err
	}
	s.restarts++
	return s.resumeReport(rec), nil
}

// resumeReport summarizes a finished resume.
func (s *session) resumeReport(rec *journal.Recovered) ResumeReport {
	return ResumeReport{
		Epoch:            s.machine.Epoch(),
		RecoveredRound:   rec.LastRound,
		RecoveredSamples: rec.State.Store.Len(),
		ReplayedRecords:  rec.Replayed,
		TornTail:         rec.Torn,
		PlanMatched:      s.fp == rec.State.Fingerprint,
	}
}

// resumeSession cold-starts a session from the journal in cfg.Journal:
// the recovered installed demand is replanned, a fresh machine boots at
// round zero, and every shard is seeded from the recovered state. The
// round clock restarts, so recovered dead declarations are anchored at
// -1 (any fresh evidence of life resurrects).
func (p *Planner) resumeSession(cfg MonitorConfig) (*session, ResumeReport, error) {
	// The journal must be read before startSession supersedes it with a
	// fresh checkpoint.
	rec, err := journal.Recover(cfg.Journal)
	if err != nil {
		return nil, ResumeReport{}, fmt.Errorf("remo: resume: %w", err)
	}
	st := rec.State
	demand := st.Demand
	if demand == nil || len(demand.Pairs()) == 0 {
		demand = p.currentDemand()
	}
	s, err := p.startSession(cfg, demand, st)
	if err != nil {
		return nil, ResumeReport{}, err
	}
	s.restore(st)
	s.restarts = 1
	coldDead := make(map[model.NodeID]int, len(st.Dead))
	for n := range st.Dead {
		coldDead[n] = -1
	}
	// The recovered assignment already rebuilt the tree→shard map.
	if err = s.machine.ResumeCollector(resumeState(st, coldDead)); err == nil {
		s.log.repo = st.Store
		// Re-seal the log with the recovered (not empty) state.
		err = s.checkpoint()
	}
	if err != nil {
		_ = s.close()
		return nil, ResumeReport{}, fmt.Errorf("remo: resume: %w", err)
	}
	return s, s.resumeReport(rec), nil
}
