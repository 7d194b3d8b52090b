package cluster

import (
	"fmt"
	"sync"

	"remo/internal/detect"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/predict"
	"remo/internal/store"
	"remo/internal/task"
	"remo/internal/trace"
	"remo/internal/transport"
)

// delayedMsg is a chaos-delayed message waiting for its due round.
type delayedMsg struct {
	due int
	msg transport.Message
}

// Machine is a steppable emulated deployment: the paper's system in
// motion. Unlike Run, which executes a fixed number of rounds against a
// fixed topology, a Machine runs round by round and accepts topology
// swaps between rounds — the runtime half of REMO's adaptive planning
// (§4): the planner produces new forests as tasks change, and the
// machine rewires the overlay while values keep flowing.
//
// When cfg.Detect is set the machine also runs the failure-detection
// half of the self-healing loop: every live node emits a cost-exempt
// heartbeat per round, the collector feeds all evidence of life to a
// detect.Detector, and verdicts (deaths and recoveries) accumulate for
// the monitor to consume via TakeVerdicts.
type Machine struct {
	cfg    Config
	tr     transport.Transport
	ownTr  bool
	states []*nodeState
	// tier is the collection tier: max(cfg.Shards, 1) collector shards.
	// A lone collector is a 1-shard tier.
	tier *shardTier
	// eng is the persistent worker pool driving the round phases.
	eng    *engine
	round  int
	closed bool
	// extraSent/extraDrops preserve traffic counters of nodes dropped by
	// a topology swap (and count delayed messages lost at injection);
	// the remaining extras preserve the fencing and buffering counters
	// of such nodes the same way.
	extraSent, extraDrops                            int
	extraStale, extraBuffered, extraShed, extraRedel int
	// Suppression counters of pruned nodes, plus markers lost outside
	// any node (collector-down discards, failed delayed injections).
	extraObserved, extraSuppressed, extraMarkersLost int

	// errSum, pairs, staleSum and fresh total every round's tally (see
	// tally): errSum in whole relative errors, one float add a round.
	errSum                 float64
	pairs, staleSum, fresh int

	// collectorDown is latched when the chaos schedule crashes the
	// central collector — a 1-shard tier's one shard, and with it the
	// root that hosts the failure detector and the dispatcher; cleared
	// by ResumeCollector.
	collectorDown bool

	// det is the failure detector (nil when detection is off).
	det *detect.Detector
	// beatNodes is every system node, cached for heartbeat emission —
	// including nodes pruned out of the forest, so recoveries are seen.
	beatNodes []model.NodeID
	// beatBuf backs each round's heartbeat payloads, one slot per node,
	// rewritten every round: beats are absorbed at the round barrier, so
	// the next round's overwrite never races a live message.
	beatBuf []transport.Beat
	// verdicts accumulates detector output between TakeVerdicts calls.
	verdicts []detect.Verdict

	// delayMu guards delayed, which node goroutines append to via the
	// config's delaySink during the send phase.
	delayMu sync.Mutex
	delayed []delayedMsg
}

// NewMachine validates the configuration and prepares a deployment at
// round 0. Rounds in cfg does not bound stepping — a machine steps until
// it is closed — but a positive one shrinks each pair's delivery dedup
// window to the run's length.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Sys == nil || cfg.Forest == nil || cfg.Demand == nil {
		return nil, ErrNoForest
	}
	if cfg.Source == nil {
		cfg.Source = BurstyWalk{}
	}
	if cfg.Resolve == nil {
		cfg.Resolve = func(a model.AttrID) model.AttrID { return a }
	}
	cfg.Chaos = cfg.Chaos.ForSystem(cfg.Sys)
	// The session starts at epoch 1 so a zero-valued frame (or one from
	// a pre-epoch wire peer) is always older than any installed plan.
	cfg.epoch = 1
	cfg.keyEpochs = make(map[string]uint32, len(cfg.Forest.Trees))
	for _, t := range cfg.Forest.Trees {
		cfg.keyEpochs[t.Attrs.Key()] = cfg.epoch
	}
	m := &Machine{cfg: cfg, tr: cfg.Transport}
	m.cfg.delaySink = func(due int, msg transport.Message) {
		// Delayed messages outlive the round barrier, so they cannot
		// borrow the sender's reused compose buffer — clone the payload.
		msg.Values = append([]transport.Value(nil), msg.Values...)
		if len(msg.Suppressed) > 0 {
			msg.Suppressed = append([]transport.Supp(nil), msg.Suppressed...)
		}
		if len(msg.Syncs) > 0 {
			msg.Syncs = append([]transport.Supp(nil), msg.Syncs...)
		}
		m.delayMu.Lock()
		m.delayed = append(m.delayed, delayedMsg{due: due, msg: msg})
		m.delayMu.Unlock()
	}
	m.eng = newEngine(resolveWorkers(cfg.Workers))
	if m.tr == nil {
		m.tr = transport.NewMemory(cfg.Sys.NodeIDs())
		m.ownTr = true
	}
	m.states = buildStates(m.cfg)
	m.initShardTier()
	if cfg.Detect != nil {
		m.det = detect.New(*cfg.Detect)
		m.beatNodes = cfg.Sys.NodeIDs()
		m.det.Watch(m.watchSet(), 0)
	}
	return m, nil
}

// watchSet is the failure detector's subject list: every node with
// demanded pairs or a place in the forest.
func (m *Machine) watchSet() []model.NodeID {
	seen := make(map[model.NodeID]struct{})
	for _, p := range m.cfg.Demand.Pairs() {
		seen[p.Node] = struct{}{}
	}
	for _, t := range m.cfg.Forest.Trees {
		for _, n := range t.Members() {
			seen[n] = struct{}{}
		}
	}
	out := make([]model.NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	return out
}

// Round returns the next round to execute.
func (m *Machine) Round() int { return m.round }

// Step executes one collection round.
func (m *Machine) Step() error {
	if m.closed {
		return fmt.Errorf("cluster: machine closed")
	}
	round := m.round
	m.round++
	m.stepShardChaos(round)

	m.eng.forEach(m.states, func(st *nodeState) { st.receivePhase(m.cfg, m.tr, round) })
	m.eng.forEach(m.states, func(st *nodeState) { st.sendPhase(m.cfg, m.tr, round) })
	m.injectDelayed(round)
	m.emitBeats(round)
	if err := m.tr.Flush(); err != nil {
		return fmt.Errorf("cluster: round %d: %w", round, err)
	}
	msgs := m.tr.Drain(model.Central)
	var t tally
	if m.collectorDown {
		// The dead collector hears nothing: whatever reached its mailbox
		// (delayed injections, unbuffered root sends) is lost, and the
		// failure detector and the dispatcher — hosted beside it — are
		// frozen with it. Scoring still runs: ground truth keeps moving
		// while the views stand still, which is exactly the error a
		// crashed collector accrues.
		m.extraDrops += len(msgs)
		for _, msg := range msgs {
			m.extraMarkersLost += len(msg.Suppressed)
		}
		m.shardScore(round, &t)
	} else {
		// Root aggregation tier: node-level failure detection is hosted
		// here (it never dies with a shard), frames route to their owning
		// shard's collector, and the dispatcher closes the round.
		if m.det != nil {
			msgs = m.feedDetector(msgs)
		}
		m.shardAbsorb(msgs, round)
		m.shardScore(round, &t)
		if m.det != nil {
			m.advanceDetector(round)
		}
		m.shardDispatch(round)
	}
	m.errSum += float64(t.err) / errUnit
	m.pairs += t.pairs
	m.staleSum += t.stale
	m.fresh += t.fresh
	return nil
}

// injectDelayed releases chaos-delayed messages whose due round arrived.
// Injection happens after the send phase and before Flush, so a message
// delayed d rounds arrives exactly d rounds late on both node-to-node
// links (drained next round) and root-to-central links (drained this
// round).
func (m *Machine) injectDelayed(round int) {
	m.delayMu.Lock()
	var due []transport.Message
	keep := m.delayed[:0]
	for _, d := range m.delayed {
		if d.due <= round {
			due = append(due, d.msg)
		} else {
			keep = append(keep, d)
		}
	}
	m.delayed = keep
	m.delayMu.Unlock()
	for _, msg := range due {
		if err := m.tr.Send(msg); err != nil {
			m.extraDrops++
			m.extraMarkersLost += len(msg.Suppressed)
		}
	}
}

// emitBeats sends one cost-exempt heartbeat per live system node
// straight to the collector. Beats bypass the trees, so an interior-node
// crash cannot silence a live subtree; they also come from nodes pruned
// out of the forest, so a recovered node is noticed. Chaos link loss
// applies: a beat can be dropped like any message, which the suspicion
// window absorbs.
func (m *Machine) emitBeats(round int) {
	if m.det == nil || m.collectorDown {
		return
	}
	if len(m.beatBuf) < len(m.beatNodes) {
		m.beatBuf = make([]transport.Beat, len(m.beatNodes))
	}
	for i, n := range m.beatNodes {
		if m.cfg.Chaos.Crashed(n, round) {
			continue
		}
		if m.cfg.Chaos.Drop(n, model.Central, round, int(n)) {
			continue
		}
		m.beatBuf[i] = transport.Beat{Node: n, Round: round}
		err := m.tr.Send(transport.Message{
			From:  n,
			To:    model.Central,
			Epoch: m.cfg.epoch,
			Beats: m.beatBuf[i : i+1 : i+1],
		})
		if err != nil {
			m.extraDrops++
		}
	}
}

// feedDetector routes evidence of life to the failure detector and
// filters heartbeat-only messages out of the collector's inbox so they
// stay exempt from the capacity cost model.
func (m *Machine) feedDetector(msgs []transport.Message) []transport.Message {
	kept := msgs[:0]
	for _, msg := range msgs {
		for _, b := range msg.Beats {
			m.det.Beat(b.Node, b.Round)
		}
		for _, v := range msg.Values {
			m.det.Beat(v.Node, v.Round)
		}
		for _, e := range msg.Suppressed {
			// A suppression marker is evidence of life: only the origin
			// node's live leaf could have generated it this round.
			m.det.Beat(e.Node, e.Round)
		}
		if len(msg.Values) > 0 || len(msg.Beats) == 0 {
			kept = append(kept, msg)
		}
	}
	return kept
}

// advanceDetector collects the round's verdicts, traces them and queues
// them for TakeVerdicts.
func (m *Machine) advanceDetector(round int) {
	vs := m.det.Advance(round)
	if len(vs) == 0 {
		return
	}
	m.verdicts = append(m.verdicts, vs...)
	if m.cfg.Trace == nil {
		return
	}
	for _, v := range vs {
		kind := trace.Detect
		if v.Recovered {
			kind = trace.NodeRecover
		}
		m.cfg.Trace.Record(trace.Event{Round: round, Kind: kind, Node: v.Node})
	}
}

// TakeVerdicts returns the failure-detector verdicts accumulated since
// the last call, oldest first, and clears the queue. It returns nil when
// detection is off or nothing happened.
func (m *Machine) TakeVerdicts() []detect.Verdict {
	out := m.verdicts
	m.verdicts = nil
	return out
}

// Detector exposes the failure detector (nil when detection is off) for
// callers that need liveness reads, e.g. Alive checks during repair.
func (m *Machine) Detector() *detect.Detector { return m.det }

// StepN executes n rounds.
func (m *Machine) StepN(n int) error {
	for i := 0; i < n; i++ {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// InstallDiff swaps in a new topology and demand between rounds, modeling
// the overlay reconfiguration the adaptation planner ordered, and
// returns the tree-level plan diff against the outgoing topology. Trees
// kept byte-for-byte (identical fingerprint) keep their members' relay
// state across the swap and need no re-announcement. Every tree of the
// new forest opens a new plan epoch, so the frames in flight at the swap
// are fenced (the transient cost of adaptation) and a retired tree's
// fence at the newest epoch. The collector keeps its stale views —
// exactly what a real collector would do — but re-targets its coverage
// accounting to the new demand. Per-tree outcomes are recorded on the
// trace when one is attached.
func (m *Machine) InstallDiff(forest *plan.Forest, d *task.Demand) plan.Diff {
	diff := plan.DiffForests(m.cfg.Forest, forest)
	m.cfg.Forest = forest
	m.cfg.Demand = d
	m.rebuildStates()
	for _, k := range diff.Dropped {
		delete(m.cfg.keyEpochs, k)
	}
	// Kept trees fence too. Sparing them is ROADMAP 3(d), which stays
	// open until freshness is measured: spared frames deliver more deep
	// values, which raises delivered age, so only freshness can judge
	// the rule.
	m.openEpoch(0, func(string) bool { return true })
	// Re-place the new forest: persisting trees stick to their live
	// owners, fresh trees spread onto the least-loaded shards, retired
	// trees leave the map.
	m.tier.disp.Retarget(shardLoads(m.cfg), m.round)
	m.tier.owner = m.tier.ownerMap()
	m.recomputeDownKeys()
	m.rebuildShardDemands()
	if m.det != nil {
		m.det.Watch(m.watchSet(), m.round)
	}
	if m.cfg.Trace != nil {
		for _, k := range diff.Kept {
			m.cfg.Trace.Record(trace.Event{Round: m.round, Kind: trace.TreeKept, Node: model.Central, TreeKey: k})
		}
		for _, k := range diff.Rebuilt {
			m.cfg.Trace.Record(trace.Event{Round: m.round, Kind: trace.TreeRebuilt, Node: model.Central, TreeKey: k})
		}
		for _, k := range diff.Dropped {
			m.cfg.Trace.Record(trace.Event{Round: m.round, Kind: trace.TreeDropped, Node: model.Central, TreeKey: k})
		}
	}
	return diff
}

// rebuildStates re-derives per-node state from the current config,
// carrying counters, surviving relay buffers and outgoing buffers over
// from the previous topology.
func (m *Machine) rebuildStates() {
	old := make(map[model.NodeID]*nodeState, len(m.states))
	for _, st := range m.states {
		old[st.id] = st
	}
	m.states = buildStates(m.cfg)

	// Preserve traffic counters and surviving relay buffers.
	for _, st := range m.states {
		prev, ok := old[st.id]
		if !ok {
			continue
		}
		st.sent = prev.sent
		st.drops = prev.drops
		st.stale = prev.stale
		st.buffered = prev.buffered
		st.shed = prev.shed
		st.redelivered = prev.redelivered
		st.outbox = prev.outbox
		st.observed = prev.observed
		st.suppressed = prev.suppressed
		st.markersLost = prev.markersLost
		// Model replicas survive the swap, but every plan install opens a
		// new epoch at the collector — force a sync so both ends re-lock
		// under the new plan before any further imputation.
		st.pred = prev.pred
		for _, lp := range st.pred {
			lp.needSync = true
		}
		for _, mb := range st.memberships {
			if buf, has := prev.relay[mb.key]; has {
				st.relay[mb.key] = buf
			}
			if buf, has := prev.relaySupp[mb.key]; has {
				if st.relaySupp == nil {
					st.relaySupp = make(map[string][]transport.Supp)
				}
				st.relaySupp[mb.key] = buf
			}
			if buf, has := prev.relaySync[mb.key]; has {
				if st.relaySync == nil {
					st.relaySync = make(map[string][]transport.Supp)
				}
				st.relaySync[mb.key] = buf
			}
		}
		// Markers buffered for trees this node no longer relays die with
		// the swap, like the relay values themselves.
		for k, buf := range prev.relaySupp {
			if _, kept := st.relaySupp[k]; !kept {
				st.markersLost += len(buf)
			}
		}
		delete(old, st.id)
	}
	for _, gone := range old {
		m.extraSent += gone.sent
		m.extraDrops += gone.drops
		m.extraStale += gone.stale
		m.extraBuffered += gone.buffered
		m.extraRedel += gone.redelivered
		// A node pruned from the plan takes its parked frames with it.
		m.extraShed += gone.shed + len(gone.outbox)
		m.extraObserved += gone.observed
		m.extraSuppressed += gone.suppressed
		m.extraMarkersLost += gone.markersLost
		for _, buf := range gone.relaySupp {
			m.extraMarkersLost += len(buf)
		}
	}
}

// Result summarizes everything observed so far.
func (m *Machine) Result() Result {
	res := m.tier.merged()
	res.Rounds = m.round
	if m.pairs > 0 {
		res.AvgPercentError = 100 * m.errSum / float64(m.pairs)
	}
	if m.fresh > 0 {
		res.AvgStaleness = float64(m.staleSum) / float64(m.fresh)
	}
	res.MessagesSent += m.extraSent
	res.MessagesDropped += m.extraDrops
	res.StaleEpochFrames += m.extraStale
	res.FramesBuffered = m.extraBuffered
	res.FramesShed = m.extraShed
	res.FramesRedelivered = m.extraRedel
	res.ValuesObserved += m.extraObserved
	res.ValuesSuppressed += m.extraSuppressed
	res.MarkersLost += m.extraMarkersLost
	for _, st := range m.states {
		res.MessagesSent += st.sent
		res.MessagesDropped += st.drops
		res.StaleEpochFrames += st.stale
		res.FramesBuffered += st.buffered
		res.FramesShed += st.shed
		res.FramesRedelivered += st.redelivered
		res.ValuesObserved += st.observed
		res.ValuesSuppressed += st.suppressed
		res.MarkersLost += st.markersLost
	}
	return res
}

// PredictSnapshots captures every materialized collector-side model
// replica for journal checkpoints (nil when prediction is off or no
// replica exists yet), merged across every shard collector — pair
// ownership is disjoint, so the union is well-defined.
func (m *Machine) PredictSnapshots() map[model.Pair]predict.Snapshot {
	var out map[model.Pair]predict.Snapshot
	for _, c := range m.tier.colls {
		out = c.predSnapshots(out)
	}
	return m.tier.resid.predSnapshots(out)
}

// Epoch returns the newest plan epoch issued (1 at session start).
func (m *Machine) Epoch() uint32 { return m.cfg.epoch }

// openEpoch issues the next plan epoch, past floor (the newest epoch a
// recovered journal saw), and moves every tree fresh selects onto it:
// frames composed for those trees under an older epoch are fenced from
// then on. Every other tree keeps its epoch, and its frames on the wire
// survive.
func (m *Machine) openEpoch(floor uint32, fresh func(key string) bool) {
	m.cfg.epoch = max(m.cfg.epoch, floor) + 1
	for _, t := range m.cfg.Forest.Trees {
		if k := t.Attrs.Key(); fresh(k) {
			m.cfg.keyEpochs[k] = m.cfg.epoch
		}
	}
}

// CollectorDown reports whether the central collector is currently
// crashed per the chaos schedule.
func (m *Machine) CollectorDown() bool { return m.collectorDown }

// BufferedFrames returns the number of frames currently parked in node
// outgoing buffers across the deployment.
func (m *Machine) BufferedFrames() int {
	n := 0
	for _, st := range m.states {
		n += len(st.outbox)
	}
	return n
}

// ResumeState carries the durable collector state recovered from a
// journal into a running (or freshly built) machine.
type ResumeState struct {
	// Epoch is the recovered session's last installed plan epoch. The
	// machine adopts max(current, Epoch)+1, so every frame composed
	// before the crash — whatever epoch it carried — is older than the
	// resumed session's and gets fenced.
	Epoch uint32
	// Repo seeds the recovered collector's views with the newest
	// journaled sample of every demanded pair (nil skips seeding).
	Repo *store.Store
	// Dead restores the failure detector's declared-dead set as
	// node → declaration round. Use -1 for declaration rounds when the
	// resumed session restarts its round clock at zero.
	Dead map[model.NodeID]int
	// Models restores the checkpointed model replicas. On an in-process
	// resume they are installed gated (imputation refused until the next
	// sync — the leaves advanced their replicas during the outage); a
	// cold resume instead seeds both ends live via Config.SeedModels.
	Models map[model.Pair]predict.Snapshot
}

// ResumeCollector restarts the collection tier from journaled state:
// every shard is seeded as by ResumeShard, and the failure detector
// restarts with the recovered dead set and a fresh grace window.
// Node-side state — relay buffers, outgoing buffers, traffic counters —
// is untouched: the leaves never died. Before the first round it seeds
// any tier (a cold process restart); mid-run only a crashed lone
// collector, because a sharded tier's root never dies.
func (m *Machine) ResumeCollector(rs ResumeState) error {
	if m.tier.n > 1 && m.round > 0 {
		return fmt.Errorf("cluster: ResumeCollector mid-run on a %d-shard tier, whose root never dies", m.tier.n)
	}
	for s := range m.tier.n {
		if err := m.resumeShard(s, rs); err != nil {
			return err
		}
	}
	m.collectorDown = false
	if m.cfg.Detect != nil {
		m.det = detect.New(*m.cfg.Detect)
		for n, at := range rs.Dead {
			m.det.MarkDead(n, at)
		}
		m.det.Watch(m.watchSet(), m.round)
		m.verdicts = nil
	}
	if m.cfg.Trace != nil {
		m.cfg.Trace.Record(trace.Event{Round: m.round, Kind: trace.CollectorResume, Node: model.Central})
	}
	return nil
}

// Close releases the machine's transport (when it owns it).
func (m *Machine) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.eng.close()
	if m.ownTr {
		return m.tr.Close()
	}
	return nil
}
