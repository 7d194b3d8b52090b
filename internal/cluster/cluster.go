// Package cluster emulates a REMO deployment: one state per monitoring
// node, stepped round by round by a worker pool behind phase barriers,
// periodic update messages flowing up the planned monitoring trees over
// a pluggable transport, per-round capacity enforcement, and a central
// collector measuring coverage, staleness and percentage error against
// ground truth.
//
// The emulation follows the paper's delivery model: each collection
// round every tree member sends exactly one update message to its parent
// carrying its locally observed values plus the values it received from
// its children in the previous round. Values therefore reach the central
// node after one round per hop — deep trees deliver stale values, which
// is the latency component of Fig. 8's percentage error. Nodes whose
// capacity budget cannot cover a message's cost drop it, which is the
// loss component.
package cluster

import (
	"cmp"
	"errors"
	"slices"
	"strings"

	"remo/internal/agg"
	"remo/internal/chaos"
	"remo/internal/detect"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/predict"
	"remo/internal/task"
	"remo/internal/trace"
	"remo/internal/transport"
)

// Config describes one emulated deployment.
type Config struct {
	// Sys supplies capacities and the cost model.
	Sys *model.System
	// Forest is the monitoring topology to deploy.
	Forest *plan.Forest
	// Demand is the monitoring workload (defines local values per node).
	Demand *task.Demand
	// Spec enables in-network aggregation for selected attributes (nil =
	// holistic).
	Spec *agg.Spec
	// Source produces ground-truth values. Defaults to BurstyWalk{}.
	Source ValueSource
	// Transport defaults to an in-process memory transport.
	Transport transport.Transport
	// Rounds is the number of collection rounds to run (must be > 0).
	Rounds int
	// Workers sizes the round engine's worker pool: 0 (or less) uses one
	// worker per available CPU, positive values are used as given. One
	// worker runs every phase inline — the reference the equivalence
	// tests compare the pool against.
	Workers int
	// Resolve maps alias attributes (reliability replicas) to their
	// originals; nil means identity.
	Resolve func(model.AttrID) model.AttrID
	// EnforceCapacity applies per-round capacity budgets; disable to
	// measure pure latency effects.
	EnforceCapacity bool
	// Chaos schedules fault injection (crashes, recoveries, message loss
	// and delay). Nil injects nothing.
	Chaos *chaos.Config
	// Detect, when set, arms the collector-side failure detector: nodes
	// emit cost-exempt per-round heartbeats and the machine declares
	// silent nodes dead after the suspicion window.
	Detect *detect.Config
	// Observer, when set, receives every value the collector accepts
	// (alias-resolved), in canonical per-round order. It is called from
	// the coordinator goroutine only.
	Observer func(pair model.Pair, round int, value float64)
	// Trace, when set, records structured emulation events.
	Trace *trace.Recorder
	// LeafBuffer bounds the per-node outgoing frame buffer (0 disables
	// buffering). When the collector is down — or a transport send fails
	// — nodes park up to this many frames instead of dropping them, shed
	// the oldest frame on overflow, and redeliver oldest-first once the
	// destination is reachable again.
	LeafBuffer int
	// Shards splits the collection tier across this many collector
	// shards (<= 1 runs one: the lone central collector is a 1-shard
	// tier). Each tree is owned by exactly one shard, placed by the
	// internal/shard dispatcher; a root aggregation tier merges the
	// per-shard partials into the single Result. CollectorCrashAt downs
	// a 1-shard tier's shard together with its root; above one shard the
	// root never dies, and shard outages come from ShardCrashAt instead.
	Shards int
	// SeedAssignment, when it names a valid shard for every tree in the
	// forest, is adopted verbatim as the initial tree→shard map — the
	// journal-recovery path that must rebuild the identical pre-crash
	// assignment. Otherwise the dispatcher places from scratch.
	SeedAssignment map[string]int
	// Predict arms forecast-driven traffic suppression: every leaf and
	// its collector keep bit-identical model replicas per (node,
	// attribute) pair, values within the spec's dead band are withheld
	// from the wire (a ~3-byte marker rides instead), and the collector
	// imputes them from its replica. Aliased and aggregated attributes
	// are exempt. Nil disables suppression (the default) and leaves the
	// session's traffic byte-identical to pre-suppression builds.
	Predict *predict.Spec
	// SeedModels seeds both ends' model replicas on a cold resume
	// (Monitor.ResumeMonitor): leaf and collector restart from the same
	// checkpointed snapshot, so they are in lockstep from round zero and
	// suppression resumes without waiting for the first periodic sync.
	SeedModels map[model.Pair]predict.Snapshot

	// dedup is how many rounds each pair's delivery window covers; set by
	// NewMachine (see dedupSpan).
	dedup int
}

// Result aggregates what the collector observed.
type Result struct {
	// Rounds actually run.
	Rounds int
	// DemandedPairs is the number of distinct node-attribute pairs to
	// collect (aliases folded onto their originals).
	DemandedPairs int
	// CoveredPairs is how many demanded pairs were delivered at least
	// once.
	CoveredPairs int
	// PercentCollected is delivered (pair, round) observations over
	// demanded ones, in percent. Piggybacked low-rate pairs count only
	// the rounds they are due.
	PercentCollected float64
	// AvgPercentError is the mean relative error between the collector's
	// view and ground truth over all demanded pairs and rounds, in
	// percent. Never-delivered pairs count as 100% error.
	AvgPercentError float64
	// AvgStaleness is the mean age (in rounds) of delivered views.
	AvgStaleness float64
	// MessagesSent counts update messages accepted by the transport.
	MessagesSent int
	// MessagesDropped counts messages lost to capacity, failures or link
	// drops.
	MessagesDropped int
	// ValuesDelivered counts attribute values received by the collector.
	ValuesDelivered int
	// ValuesObserved counts leaf observations of suppression-eligible
	// slots (prediction armed, holistic, unaliased). Zero when
	// Config.Predict is nil.
	ValuesObserved int
	// ValuesSuppressed counts observations withheld from the wire
	// because the shared forecast was within the attribute's dead band.
	// ValuesSuppressed <= ValuesObserved.
	ValuesSuppressed int
	// ValuesImputed counts suppressed slots the collector reconstructed
	// from its model replica.
	ValuesImputed int
	// ModelSyncs counts forced ground-truth re-syncs the collector
	// absorbed (both replicas reset and re-seed from the carried value).
	ModelSyncs int
	// MarkersLost counts suppression markers that died before
	// imputation: frames dropped on the wire or by budgets, fencing,
	// outage buffering (markers are stripped when a frame is parked),
	// and collector-side refusals when its replica cannot guarantee the
	// dead band. ValuesImputed + MarkersLost <= ValuesSuppressed.
	MarkersLost int
	// ImputeBandMax is the maximum |imputed − truth| / band ratio over
	// all imputations; <= 1 whenever the replicas stayed in lockstep,
	// which the sync/gap protocol guarantees. Zero when nothing was
	// imputed.
	ImputeBandMax float64
	// StaleEpochFrames counts frames rejected by epoch fencing — values
	// composed under an older plan epoch than their tree's.
	StaleEpochFrames int
	// FramesBuffered counts frames parked in node outgoing buffers
	// (collector outages and transport failures).
	FramesBuffered int
	// FramesShed counts buffered frames dropped oldest-first on buffer
	// overflow, plus buffers lost to node crashes and topology swaps.
	FramesShed int
	// FramesRedelivered counts buffered frames delivered after the fact.
	// FramesBuffered = FramesRedelivered + FramesShed + frames still
	// buffered when the session ended.
	FramesRedelivered int
	// Shards is the number of collector shards the session ran (1 for a
	// lone collector).
	Shards int
	// ShardsDown counts shards down when the session ended.
	ShardsDown int
	// OrphanedTrees counts trees that lost their owning shard to a shard
	// death, cumulatively across the session.
	OrphanedTrees int
	// TreesRedispatched counts orphaned trees re-homed onto surviving
	// shards. It trails OrphanedTrees only while orphans await a live
	// leaseholder.
	TreesRedispatched int
	// LeaderElections counts dispatcher leader changes.
	LeaderElections int
	// ShardWatermarks records, per shard, the last round the shard was
	// live and processed its trees (-1 = never). A lagging watermark is
	// how a dead shard degrades coverage accounting instead of blocking
	// the round.
	ShardWatermarks []int
}

// Errors returned by Run.
var (
	ErrNoRounds = errors.New("cluster: Rounds must be positive")
	ErrNoForest = errors.New("cluster: nil forest or system")
)

// membership is one node's role in one tree.
type membership struct {
	key    string
	tree   *plan.Tree
	rec    *treeRec // the tree's runtime record (epoch, accountable shard)
	parent model.NodeID
	local  []model.AttrID // attrs this node contributes to the tree
	period map[model.AttrID]int
	// relay buffers what the node's children sent for this tree until
	// the next send phase.
	relay payload
	// compose is the reused body of this membership's outgoing message:
	// the relayed payload plus this node's own values and markers. The
	// round barrier makes reuse safe: a message composed in round r is
	// consumed (relayed or absorbed) before round r+1's send phase
	// rewrites the buffer. Chaos-delayed messages outlive the round, so
	// the sender clones them (nodeState.delayed).
	compose payload
}

// payload is a reusable message body: values, suppression markers and
// sync markers.
type payload struct {
	values []transport.Value
	supps  []transport.Supp
	syncs  []transport.Supp
}

// reset empties p, keeping its backing arrays.
func (p *payload) reset() {
	p.values, p.supps, p.syncs = p.values[:0], p.supps[:0], p.syncs[:0]
}

// leafPred is one leaf-side model replica. needSync forces the next
// due transmission to carry the ground truth with a reset marker —
// set when the replica is created, when the plan swaps, and when a
// frame carrying this attribute's markers is lost locally.
type leafPred struct {
	m        predict.Model
	needSync bool
}

// pendingFrame is one outgoing message parked in a node's buffer while
// its destination is unreachable. The payload is cloned off the
// membership's reused compose buffer because it outlives the round.
type pendingFrame struct {
	to     model.NodeID
	key    string
	round  int
	values []transport.Value
}

// counters are a node's traffic, fencing, outbox and suppression
// counts, each feeding the Result field it names.
type counters struct {
	sent        int // MessagesSent
	drops       int // MessagesDropped
	stale       int // StaleEpochFrames: inbound frames fenced by epoch
	buffered    int // FramesBuffered
	shed        int // FramesShed
	redelivered int // FramesRedelivered
	observed    int // ValuesObserved
	suppressed  int // ValuesSuppressed
	markersLost int // MarkersLost
}

// add sums o into c.
func (c *counters) add(o counters) {
	c.sent += o.sent
	c.drops += o.drops
	c.stale += o.stale
	c.buffered += o.buffered
	c.shed += o.shed
	c.redelivered += o.redelivered
	c.observed += o.observed
	c.suppressed += o.suppressed
	c.markersLost += o.markersLost
}

// nodeState is the per-node runtime state, owned by its goroutine.
type nodeState struct {
	id          model.NodeID
	capacity    float64
	memberships []membership
	// budget is the round's remaining capacity, shared by the receive
	// and send phases.
	budget float64
	// outbox holds frames awaiting redelivery, oldest first (see
	// Config.LeafBuffer).
	outbox []pendingFrame
	// delayed holds the frames chaos delayed this send phase, cloned off
	// the compose buffers; the machine gathers them after the phase.
	delayed []delayedMsg
	// pred holds this node's model replicas by attribute (an attribute
	// lives in exactly one tree, so the map is membership-agnostic).
	pred map[model.AttrID]*leafPred
	counters
}

// member returns the node's membership in the tree of record r, or nil.
func (st *nodeState) member(r *treeRec) *membership {
	for i := range st.memberships {
		if st.memberships[i].rec == r {
			return &st.memberships[i]
		}
	}
	return nil
}

// leafModel returns (creating on first use) the node's replica for
// attribute a. A fresh replica starts needing a sync — unless a cold
// resume seeded this pair, in which case both ends restart from the
// same snapshot and are already in lockstep.
func (st *nodeState) leafModel(cfg Config, a model.AttrID) *leafPred {
	lp, ok := st.pred[a]
	if ok {
		return lp
	}
	if st.pred == nil {
		st.pred = make(map[model.AttrID]*leafPred)
	}
	if sn, seeded := cfg.SeedModels[model.Pair{Node: st.id, Attr: a}]; seeded {
		lp = &leafPred{m: predict.FromSnapshot(sn)}
	} else {
		lp = &leafPred{m: cfg.Predict.New(a), needSync: true}
	}
	st.pred[a] = lp
	return lp
}

// loseMarkers accounts a frame's suppression markers dying with it and
// forces a re-sync for this node's own affected attributes (relayed
// markers belong to descendants, whose own periodic sync re-locks
// them). Sync markers are not counted lost — their carried value died
// too, so the collector replica simply never re-seeded — but losing
// one still desynchronizes this node's replica, hence the needSync.
func (st *nodeState) loseMarkers(supps, syncs []transport.Supp) {
	st.markersLost += len(supps)
	for _, e := range supps {
		if e.Node == st.id {
			if lp, ok := st.pred[e.Attr]; ok {
				lp.needSync = true
			}
		}
	}
	for _, e := range syncs {
		if e.Node == st.id {
			if lp, ok := st.pred[e.Attr]; ok {
				lp.needSync = true
			}
		}
	}
}

// Run executes a fixed-length emulation and returns the collector's
// measurements. It is a convenience wrapper over Machine for experiments
// with a static topology.
func Run(cfg Config) (Result, error) {
	if cfg.Rounds <= 0 {
		return Result{}, ErrNoRounds
	}
	m, err := NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(cfg.Rounds); err != nil {
		return Result{}, err
	}
	return m.Result(), nil
}

// buildStates prepares per-node runtime state from the plan, pointing
// every membership at its tree's record in trees.
func buildStates(cfg Config, trees *treeTable) []*nodeState {
	byID := make(map[model.NodeID]*nodeState)
	state := func(n model.NodeID) *nodeState {
		st, ok := byID[n]
		if !ok {
			st = &nodeState{id: n, capacity: cfg.Sys.Capacity(n)}
			byID[n] = st
		}
		return st
	}
	for _, t := range cfg.Forest.Trees {
		key := t.Attrs.Key()
		rec := trees.byKey[key]
		for _, n := range t.Members() {
			parent, _ := t.Parent(n)
			local := cfg.Demand.LocalAttrs(n, t.Attrs)
			period := make(map[model.AttrID]int, len(local))
			for _, a := range local {
				period[a] = weightPeriod(cfg.Demand.Weight(n, a))
			}
			st := state(n)
			st.memberships = append(st.memberships, membership{
				key:    key,
				tree:   t,
				rec:    rec,
				parent: parent,
				local:  local,
				period: period,
			})
		}
	}
	states := make([]*nodeState, 0, len(byID))
	for _, st := range byID {
		slices.SortFunc(st.memberships, func(a, b membership) int {
			return strings.Compare(a.key, b.key)
		})
		states = append(states, st)
	}
	slices.SortFunc(states, func(a, b *nodeState) int { return cmp.Compare(a.id, b.id) })
	return states
}

// weightPeriod converts a piggyback weight to a reporting period: weight
// 1 reports every round, weight 0.5 every second round, etc.
func weightPeriod(w float64) int {
	if w >= 1 || w <= 0 {
		return 1
	}
	p := int(1/w + 0.5)
	if p < 1 {
		p = 1
	}
	return p
}

// dead reports whether the node has failed by the given round per the
// chaos crash/recover schedule.
func (st *nodeState) dead(cfg Config, round int) bool {
	return cfg.Chaos.Crashed(st.id, round)
}

// receivePhase drains the node's inbox (messages sent last round),
// charging receive costs against this round's budget; over-budget
// messages are dropped with their payload.
func (st *nodeState) receivePhase(cfg Config, trees *treeTable, tr transport.Transport, round int) {
	st.budget = st.capacity
	if st.dead(cfg, round) {
		// Dead nodes silently discard input and lose their buffered relay
		// state — a recovered node restarts cold. Their outgoing buffer is
		// lost with them, as are any relayed suppression markers; the
		// node's own replicas must re-sync when it comes back.
		for _, msg := range tr.Drain(st.id) {
			st.markersLost += len(msg.Suppressed)
		}
		for i := range st.memberships {
			mb := &st.memberships[i]
			st.markersLost += len(mb.relay.supps)
			mb.relay.reset()
		}
		for _, lp := range st.pred {
			lp.needSync = true
		}
		if len(st.outbox) > 0 {
			st.shed += len(st.outbox)
			st.outbox = nil
		}
		if cfg.Trace != nil && cfg.Chaos.JustCrashed(st.id, round) {
			cfg.Trace.Record(trace.Event{Round: round, Kind: trace.NodeDead, Node: st.id})
		}
		return
	}
	for _, msg := range tr.Drain(st.id) {
		rec, epoch := trees.lookup(msg.TreeKey)
		if msg.Epoch < epoch {
			// Frame composed under an older plan epoch than its tree's:
			// reject it so values routed for a rebuilt (or pre-crash) tree
			// cannot leak into the current one.
			st.stale++
			st.markersLost += len(msg.Suppressed)
			continue
		}
		c := cfg.Sys.Cost.Message(len(msg.Values))
		if cfg.EnforceCapacity && c > st.budget {
			st.drops++
			st.markersLost += len(msg.Suppressed)
			if cfg.Trace != nil {
				cfg.Trace.Record(trace.Event{
					Round: round, Kind: trace.RecvDrop, Node: st.id,
					Peer: msg.From, TreeKey: msg.TreeKey, Values: len(msg.Values),
				})
			}
			continue
		}
		st.budget -= c
		// A frame for a tree this node does not relay — a parked frame
		// redelivered, after an install, to the parent it was parked for —
		// has nowhere to go; parked frames carry no markers.
		if mb := st.member(rec); mb != nil {
			mb.relay.values = append(mb.relay.values, msg.Values...)
			mb.relay.supps = append(mb.relay.supps, msg.Suppressed...)
			mb.relay.syncs = append(mb.relay.syncs, msg.Syncs...)
		}
	}
}

// sendPhase emits one message per tree membership carrying fresh local
// values plus last round's relayed values, within the remaining budget.
// Buffered frames from earlier rounds are redelivered first, so an
// outage's backlog drains in order ahead of fresh data.
func (st *nodeState) sendPhase(cfg Config, trees *treeTable, tr transport.Transport, round int) {
	if st.dead(cfg, round) {
		return
	}
	st.drainOutbox(cfg, trees, tr)
	for i := range st.memberships {
		m := &st.memberships[i]
		values := st.composeMessage(cfg, m, round)
		supps, syncs := m.compose.supps, m.compose.syncs
		if cfg.LeafBuffer > 0 && m.parent == model.Central && trees.isDown(m.rec) {
			// This tree's collector (the central one, or its owning shard)
			// is down: park the frame instead of feeding the void. Empty
			// frames carry nothing worth preserving. Markers are stripped —
			// imputation state cannot survive an outage, so the slots count
			// lost and the node re-syncs after the backlog drains.
			st.loseMarkers(supps, syncs)
			if len(values) > 0 {
				st.bufferFrame(cfg, m.parent, m.key, round, values)
			}
			continue
		}
		c := cfg.Sys.Cost.Message(len(values))
		if cfg.EnforceCapacity && c > st.budget {
			st.drops++
			st.loseMarkers(supps, syncs)
			st.traceDrop(cfg, m, round, len(values))
			continue
		}
		st.budget -= c
		st.sent++
		if cfg.Chaos.Drop(st.id, m.parent, round, st.sent) {
			st.drops++
			st.loseMarkers(supps, syncs)
			st.traceDrop(cfg, m, round, len(values))
			continue
		}
		msg := transport.Message{
			TreeKey:    m.key,
			From:       st.id,
			To:         m.parent,
			Epoch:      m.rec.epoch,
			Values:     values,
			Suppressed: supps,
			Syncs:      syncs,
		}
		if d := cfg.Chaos.Delay(st.id, m.parent, round, st.sent); d > 0 {
			// A delayed frame outlives the round barrier, so it cannot
			// borrow the reused compose buffers: clone the payload.
			msg.Values = append([]transport.Value(nil), msg.Values...)
			if len(msg.Suppressed) > 0 {
				msg.Suppressed = append([]transport.Supp(nil), msg.Suppressed...)
			}
			if len(msg.Syncs) > 0 {
				msg.Syncs = append([]transport.Supp(nil), msg.Syncs...)
			}
			st.delayed = append(st.delayed, delayedMsg{due: round + d, msg: msg})
			if cfg.Trace != nil {
				cfg.Trace.Record(trace.Event{
					Round: round, Kind: trace.Delayed, Node: st.id,
					Peer: m.parent, TreeKey: m.key, Values: len(values),
				})
			}
			continue
		}
		err := tr.Send(msg)
		if err != nil {
			if cfg.LeafBuffer > 0 && len(values) > 0 {
				// Transport failure: keep the frame for redelivery. The send
				// attempt already consumed capacity, but it was never on the
				// wire, so it does not count as sent. Markers are stripped
				// like any parked frame's.
				st.sent--
				st.loseMarkers(supps, syncs)
				st.bufferFrame(cfg, m.parent, m.key, round, values)
				continue
			}
			st.drops++
			st.loseMarkers(supps, syncs)
			st.traceDrop(cfg, m, round, len(values))
			continue
		}
		if cfg.Trace != nil {
			cfg.Trace.Record(trace.Event{
				Round: round, Kind: trace.Send, Node: st.id,
				Peer: m.parent, TreeKey: m.key, Values: len(values),
			})
		}
	}
}

// bufferFrame parks one composed frame in the node's outgoing buffer,
// shedding the oldest frame when full. Payloads are cloned off the
// membership's reused compose buffer because they outlive the round.
func (st *nodeState) bufferFrame(cfg Config, to model.NodeID, key string, round int, values []transport.Value) {
	st.buffered++
	if len(st.outbox) >= cfg.LeafBuffer {
		st.shed++
		if cfg.Trace != nil {
			old := &st.outbox[0]
			cfg.Trace.Record(trace.Event{
				Round: round, Kind: trace.Shed, Node: st.id,
				Peer: old.to, TreeKey: old.key, Values: len(old.values),
			})
		}
		copy(st.outbox, st.outbox[1:])
		st.outbox = st.outbox[:len(st.outbox)-1]
	}
	st.outbox = append(st.outbox, pendingFrame{
		to:     to,
		key:    key,
		round:  round,
		values: append([]transport.Value(nil), values...),
	})
}

// drainOutbox redelivers buffered frames oldest-first within this
// round's remaining budget. Frames are re-stamped with the current plan
// epoch: their values are genuine (if stale) observations, so they must
// pass the fence a restarted collector raises against pre-crash
// in-flight traffic. Delivery stops at the first frame that cannot go
// out (destination down, budget exhausted, or send failure); order is
// preserved.
func (st *nodeState) drainOutbox(cfg Config, trees *treeTable, tr transport.Transport) {
	if len(st.outbox) == 0 {
		return
	}
	n := 0
	for i := range st.outbox {
		f := &st.outbox[i]
		rec, epoch := trees.lookup(f.key)
		if f.to == model.Central && trees.isDown(rec) {
			break
		}
		c := cfg.Sys.Cost.Message(len(f.values))
		if cfg.EnforceCapacity && c > st.budget {
			break
		}
		err := tr.Send(transport.Message{
			TreeKey: f.key,
			From:    st.id,
			To:      f.to,
			Epoch:   epoch,
			Values:  f.values,
		})
		if err != nil {
			break
		}
		st.budget -= c
		st.sent++
		st.redelivered++
		n++
	}
	if n == 0 {
		return
	}
	rest := len(st.outbox) - n
	copy(st.outbox, st.outbox[n:])
	for i := rest; i < len(st.outbox); i++ {
		st.outbox[i] = pendingFrame{} // release payload references
	}
	st.outbox = st.outbox[:rest]
}

// traceDrop records a failed send when tracing is on.
func (st *nodeState) traceDrop(cfg Config, m *membership, round, values int) {
	if cfg.Trace == nil {
		return
	}
	cfg.Trace.Record(trace.Event{
		Round: round, Kind: trace.SendDrop, Node: st.id,
		Peer: m.parent, TreeKey: m.key, Values: values,
	})
}

// composeMessage assembles the values a node forwards for one tree this
// round, applying the suppression protocol and in-network aggregation
// funnels. The returned slice is the membership's reused compose buffer
// (see membership.compose); it stays valid until this node's next send
// phase. As a side effect m.compose's markers are rebuilt with the
// relayed markers plus this node's own, and the relay is emptied.
//
// The replica-lockstep rule (predict package doc): on a sync the model
// resets and re-seeds from the observation, which also rides the wire
// with a sync marker; on a suppression the model advances with its own
// prediction — exactly what the collector imputes — and only a marker
// rides; otherwise the model advances with the observation, which rides
// plainly. Aliased attributes (the leaf observes the original's series
// under a different id) and aggregated attributes (values collapse
// in-network) are exempt.
func (st *nodeState) composeMessage(cfg Config, m *membership, round int) []transport.Value {
	out := &m.compose
	values := append(out.values[:0], m.relay.values...)
	out.supps = append(out.supps[:0], m.relay.supps...)
	out.syncs = append(out.syncs[:0], m.relay.syncs...)
	m.relay.reset()
	for _, a := range m.local {
		if round%m.period[a] != 0 {
			continue // piggybacked metric not due this round
		}
		v := cfg.Source.Value(st.id, cfg.Resolve(a), round)
		if cfg.Predict != nil && cfg.Resolve(a) == a && cfg.Spec.KindOf(a) == agg.Holistic {
			st.observed++
			lp := st.leafModel(cfg, a)
			switch {
			case lp.needSync || cfg.Predict.SyncDue(st.id, round):
				lp.m.Reset()
				lp.m.Observe(v)
				lp.needSync = false
				out.syncs = append(out.syncs,
					transport.Supp{Node: st.id, Attr: a, Round: round})
			case lp.m.Ready() && cfg.Predict.Within(a, lp.m.Predict(), v):
				lp.m.Observe(lp.m.Predict())
				st.suppressed++
				out.supps = append(out.supps,
					transport.Supp{Node: st.id, Attr: a, Round: round})
				continue // value withheld; only the marker rides
			case lp.m.Ready():
				// Out-of-band while locked: the series shifted (a new
				// plateau). Re-sync both replicas onto the observation
				// instead of smoothing back in — a reset Holt re-locks from
				// two points, where smoothed convergence burns ~1/alpha
				// plain rounds per shift.
				lp.m.Reset()
				lp.m.Observe(v)
				out.syncs = append(out.syncs,
					transport.Supp{Node: st.id, Attr: a, Round: round})
			default:
				lp.m.Observe(v) // warm-up: advance in lockstep, value rides plainly
			}
		}
		values = append(values, transport.Value{
			Node:  st.id,
			Attr:  a,
			Round: round,
			Value: v,
		})
	}
	out.values = values
	if cfg.Spec == nil {
		return values
	}
	return aggregate(cfg, st.id, values, round)
}

// aggregate applies per-attribute runtime aggregation to a message's
// values, in place on values: a stable sort groups them by attribute in
// ascending order, arrival order kept within an attribute, then each run
// of an aggregated attribute collapses to its Combine output, attributed
// to the aggregating node at the run's oldest round. Combine never returns
// more values than it is given, so the write index never passes the read
// index, and a message of holistic values only allocates nothing.
func aggregate(cfg Config, at model.NodeID, values []transport.Value, round int) []transport.Value {
	slices.SortStableFunc(values, func(a, b transport.Value) int { return cmp.Compare(a.Attr, b.Attr) })
	w := 0
	for i := 0; i < len(values); {
		a := values[i].Attr
		j := i + 1
		for j < len(values) && values[j].Attr == a {
			j++
		}
		kind := cfg.Spec.KindOf(a)
		if kind == agg.Holistic {
			w += copy(values[w:], values[i:j])
			i = j
			continue
		}
		raw := make([]float64, j-i)
		oldest := values[i].Round
		for n, v := range values[i:j] {
			raw[n] = v.Value
			if v.Round < oldest {
				oldest = v.Round
			}
		}
		for _, c := range agg.Combine(kind, cfg.Spec.K(a), raw) {
			values[w] = transport.Value{Node: at, Attr: a, Round: oldest, Value: c}
			w++
		}
		i = j
	}
	return values[:w]
}
