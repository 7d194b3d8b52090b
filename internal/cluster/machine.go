package cluster

import (
	"fmt"

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

// treeRec is the one runtime record of an installed tree: the plan
// epoch its frames carry and the collector shard accountable for it
// (-1 when none is, and the residual collector takes its frames).
// Memberships and collectors reach it by pointer; the machine writes
// it only between rounds.
type treeRec struct {
	epoch uint32
	shard int
}

// treeTable holds the record of every tree of the installed forest.
// Receivers fence a frame composed under an older epoch than its
// tree's: every install moves every tree to a new epoch, a shard resume
// the shard's trees and a dispatcher move the moved tree, so a shard's
// outage fences only its own trees.
type treeTable struct {
	// epoch is the newest plan epoch issued: 1 at start, advanced by
	// every open.
	epoch uint32
	byKey map[string]*treeRec
	// down is the collection tier's shard liveness (shardTier.down).
	down []bool
}

// retarget re-keys the table to forest: a retired tree loses its
// record, a new tree gets one at the newest epoch and with no shard,
// and a kept tree keeps its record and every pointer to it.
func (t *treeTable) retarget(forest *plan.Forest) {
	keep := make(map[string]*treeRec, len(forest.Trees))
	for _, tr := range forest.Trees {
		k := tr.Attrs.Key()
		if r, ok := t.byKey[k]; ok {
			keep[k] = r
		} else {
			keep[k] = &treeRec{epoch: t.epoch, shard: -1}
		}
	}
	t.byKey = keep
}

// lookup returns key's record and the epoch its frames must carry. A
// tree without a record — retired by an install — fences at the newest
// epoch, so its frames still in flight are all rejected.
func (t *treeTable) lookup(key string) (*treeRec, uint32) {
	if r, ok := t.byKey[key]; ok {
		return r, r.epoch
	}
	return nil, t.epoch
}

// isDown reports whether r's accountable shard is down (an orphan stays
// booked to the dead shard it came from until re-homed), so the tree's
// root nodes buffer instead of feeding a dead shard.
func (t *treeTable) isDown(r *treeRec) bool {
	return r != nil && r.shard >= 0 && t.down[r.shard]
}

// open issues the next plan epoch, past floor (the newest epoch a
// recovered journal saw), and moves every tree fresh selects onto it:
// frames composed for those trees under an older epoch are fenced from
// then on. Every other tree keeps its epoch, and its frames on the wire
// survive.
func (t *treeTable) open(floor uint32, fresh func(key string, r *treeRec) bool) {
	t.epoch = max(t.epoch, floor) + 1
	for k, r := range t.byKey {
		if fresh(k, r) {
			r.epoch = t.epoch
		}
	}
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
	// trees is the installed forest's runtime records.
	trees *treeTable
	// tier is the collection tier: max(cfg.Shards, 1) collector shards.
	// A lone collector is a 1-shard tier.
	tier *shardTier
	// eng is the persistent worker pool driving the round phases.
	eng    *engine
	round  int
	closed bool
	// outside keeps the counters of nodes an install pruned, plus the
	// drops and lost markers booked outside any node (collector-down
	// discards, frames for a down shard, failed injections and beats).
	outside counters

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

	// delayed holds chaos-delayed messages until their due round.
	delayed []delayedMsg
}

// NewMachine validates the configuration and prepares a deployment at
// round 0. Rounds in cfg does not bound stepping — a machine steps until
// it is closed — but a positive one shorter than the worst delivery lag
// allows shrinks each pair's delivery dedup window to the run's length.
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
	cfg.dedup = dedupSpan(cfg)
	// The session starts at epoch 1 so a zero-valued frame (or one from
	// a pre-epoch wire peer) is always older than any installed plan.
	m := &Machine{cfg: cfg, tr: cfg.Transport, trees: &treeTable{epoch: 1}}
	m.trees.retarget(cfg.Forest)
	m.eng = newEngine(resolveWorkers(cfg.Workers))
	if m.tr == nil {
		m.tr = transport.NewMemory(cfg.Sys.NodeIDs())
		m.ownTr = true
	}
	m.states = buildStates(m.cfg, m.trees)
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

	m.eng.forEach(m.states, func(st *nodeState) { st.receivePhase(m.cfg, m.trees, m.tr, round) })
	m.releaseDelayed(round)
	m.eng.forEach(m.states, func(st *nodeState) { st.sendPhase(m.cfg, m.trees, m.tr, round) })
	m.gatherDelayed()
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
		m.outside.drops += len(msgs)
		for _, msg := range msgs {
			m.outside.markersLost += len(msg.Suppressed)
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

// gatherDelayed collects the send phase's chaos-delayed messages, node
// by node, until their due round.
func (m *Machine) gatherDelayed() {
	for _, st := range m.states {
		m.delayed = append(m.delayed, st.delayed...)
		clear(st.delayed)
		st.delayed = st.delayed[:0]
	}
}

// releaseDelayed sends the delayed messages whose due round arrived.
// Release happens after the receive phase and before the send phase, so
// a message delayed d rounds arrives exactly d rounds late on both
// node-to-node links (drained next round) and root-to-central links
// (drained this round), and reaches its mailbox ahead of its sender's
// fresh frame of this round: the stable drain keeps it first.
func (m *Machine) releaseDelayed(round int) {
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
	for _, msg := range due {
		if err := m.tr.Send(msg); err != nil {
			m.outside.drops++
			m.outside.markersLost += len(msg.Suppressed)
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
			Epoch: m.trees.epoch,
			Beats: m.beatBuf[i : i+1 : i+1],
		})
		if err != nil {
			m.outside.drops++
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
	m.trees.retarget(forest)
	m.rebuildStates()
	// Kept trees fence too. Sparing them is ROADMAP 3(d), which stays
	// open until freshness is measured: spared frames deliver more deep
	// values, which raises delivered age, so only freshness can judge
	// the rule.
	m.trees.open(0, func(string, *treeRec) bool { return true })
	// Re-place the new forest: persisting trees stick to their live
	// owners, fresh trees spread onto the least-loaded shards, retired
	// trees leave the map.
	m.tier.disp.Retarget(shardLoads(m.cfg), m.round)
	m.tier.place(m.trees)
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
	m.states = buildStates(m.cfg, m.trees)

	for _, st := range m.states {
		prev, ok := old[st.id]
		if !ok {
			continue
		}
		st.counters = prev.counters
		st.outbox = prev.outbox
		// Model replicas survive the swap, but every plan install opens a
		// new epoch at the collector — force a sync so both ends re-lock
		// under the new plan before any further imputation.
		st.pred = prev.pred
		for _, lp := range st.pred {
			lp.needSync = true
		}
		// A kept tree's record survives the swap, so it finds the
		// membership whose relay buffers carry over.
		for i := range prev.memberships {
			pm := &prev.memberships[i]
			if mb := st.member(pm.rec); mb != nil {
				mb.relay = pm.relay
			} else {
				// Markers buffered for a tree this node no longer relays
				// die with the swap, like the relay values themselves.
				st.markersLost += len(pm.relay.supps)
			}
		}
		delete(old, st.id)
	}
	for _, gone := range old {
		// A node pruned from the plan takes its parked frames and relayed
		// markers with it.
		gone.shed += len(gone.outbox)
		for _, pm := range gone.memberships {
			gone.markersLost += len(pm.relay.supps)
		}
		m.outside.add(gone.counters)
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
	c := m.outside
	for _, st := range m.states {
		c.add(st.counters)
	}
	res.MessagesSent += c.sent
	res.MessagesDropped += c.drops
	res.StaleEpochFrames += c.stale
	res.FramesBuffered += c.buffered
	res.FramesShed += c.shed
	res.FramesRedelivered += c.redelivered
	res.ValuesObserved += c.observed
	res.ValuesSuppressed += c.suppressed
	res.MarkersLost += c.markersLost
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

// DedupWindows reports how many delivery windows the collection tier
// holds — one per pair it marked a delivery of, demanded or parked by a
// retarget — and how many rounds each covers.
func (m *Machine) DedupWindows() (held, span int) {
	for _, c := range m.tier.colls {
		held += c.windows()
	}
	return held + m.tier.resid.windows(), m.cfg.dedup
}

// Epoch returns the newest plan epoch issued (1 at session start).
func (m *Machine) Epoch() uint32 { return m.trees.epoch }

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
