package cluster

import (
	"fmt"

	"remo/internal/agg"
	"remo/internal/model"
	"remo/internal/shard"
	"remo/internal/task"
	"remo/internal/trace"
	"remo/internal/transport"
)

// shardTier is the collection tier: max(cfg.Shards, 1) collector shards
// each own a disjoint subset of the forest's trees (placed and re-homed
// by the shard dispatcher), plus one residual collector — root-owned,
// never crashed — for demanded pairs whose attribute no tree collects.
// A lone collector is the 1-shard tier. The tier merges the per-shard
// partial results into the single Result the store and triggers
// consume, with a per-shard staleness watermark so a dead shard
// degrades coverage accounting instead of blocking the round.
type shardTier struct {
	n    int
	disp *shard.Dispatcher

	// colls[s] is shard s's collector, over the machine config with
	// Demand narrowed to the shard's trees.
	colls []*collector
	resid *collector

	// down is each shard's liveness, shared with the tree table.
	down      []bool
	watermark []int

	// batches reuses per-shard routing buffers across rounds.
	batches [][]transport.Message
	// redispatched counts orphan re-homings (rebalance moves excluded).
	redispatched int
}

// initShardTier builds the collection tier during NewMachine, after
// cfg defaults are resolved and the tree table is built.
func (m *Machine) initShardTier() {
	n := max(m.cfg.Shards, 1)
	suspicion := 0
	if m.cfg.Detect != nil {
		suspicion = m.cfg.Detect.SuspicionRounds
	}
	t := &shardTier{
		n:         n,
		disp:      shard.New(shard.Config{Shards: n, Suspicion: suspicion}),
		down:      make([]bool, n),
		watermark: make([]int, n),
		batches:   make([][]transport.Message, n),
	}
	for s := range t.watermark {
		t.watermark[s] = -1
	}
	m.tier = t
	m.trees.down = t.down

	t.disp.Init(shardLoads(m.cfg), m.cfg.SeedAssignment)
	t.place(m.trees)
	m.rebuildShardDemands()
}

// shardLoads computes each tree's placement weight from the cost
// ledger's model: the per-round cost of the tree's root message,
// carrying one value per demanded pair in the tree's attribute set.
func shardLoads(cfg Config) []shard.Load {
	out := make([]shard.Load, 0, len(cfg.Forest.Trees))
	for _, t := range cfg.Forest.Trees {
		pairs := cfg.Demand.PairCountIn(t.Attrs)
		out = append(out, shard.Load{Key: t.Attrs.Key(), Cost: cfg.Sys.Cost.Message(pairs)})
	}
	return out
}

// place books every tree to the shard accountable for it: the
// dispatcher's assignment, plus orphans still booked to the dead shard
// they came from until a leaseholder re-homes them.
func (t *shardTier) place(trees *treeTable) {
	for _, r := range trees.byKey {
		r.shard = -1
	}
	for k, s := range t.disp.Assignment() {
		trees.byKey[k].shard = s
	}
	for k, s := range t.disp.Orphans() {
		trees.byKey[k].shard = s
	}
}

// rebuildShardDemands re-derives every shard's scoped demand from the
// installed demand and the current tree→shard map, then retargets the
// collectors. Each alias-folded pair is demanded by exactly one
// collector (first-owner-wins across alias replicas; aggregated
// attributes pin all their participants to one shard), which keeps the
// merged DemandedPairs equal to the whole demand's count.
func (m *Machine) rebuildShardDemands() {
	t := m.tier
	demands := make([]*task.Demand, t.n)
	for s := range demands {
		demands[s] = task.NewDemand()
	}
	resid := task.NewDemand()
	pairOwner := make(map[model.Pair]int)
	attrOwner := make(map[model.AttrID]int)
	// treeShard caches the raw attribute → owning-shard resolution:
	// TreeFor scans the forest, and every node demanding the same
	// attribute resolves to the same tree.
	treeShard := make(map[model.AttrID]int)
	for _, p := range m.cfg.Demand.Pairs() {
		orig := m.cfg.Resolve(p.Attr)
		fold := model.Pair{Node: p.Node, Attr: orig}
		owner, decided := pairOwner[fold]
		if !decided {
			if ao, pinned := attrOwner[orig]; pinned {
				owner = ao
			} else {
				owner, decided = treeShard[p.Attr]
				if !decided {
					owner = -1
					if tr := m.cfg.Forest.TreeFor(p.Attr); tr != nil {
						owner = m.trees.byKey[tr.Attrs.Key()].shard
					}
					treeShard[p.Attr] = owner
				}
				if m.cfg.Spec.KindOf(orig) != agg.Holistic {
					// Aggregated attribute: every participant pair must land
					// in the same collector so the aggregate is demanded (and
					// scored against ground truth) exactly once.
					attrOwner[orig] = owner
				}
			}
			pairOwner[fold] = owner
		}
		w := m.cfg.Demand.Weight(p.Node, p.Attr)
		if owner < 0 {
			resid.Set(p.Node, p.Attr, w)
		} else {
			demands[owner].Set(p.Node, p.Attr, w)
		}
	}

	for s := 0; s < t.n; s++ {
		cfg := m.cfg
		cfg.Demand = demands[s]
		if s < len(t.colls) {
			t.colls[s].retarget(cfg, m.round)
		} else {
			t.colls = append(t.colls, newCollector(cfg, m.trees))
		}
	}
	residCfg := m.cfg
	residCfg.Demand = resid
	if t.resid == nil {
		t.resid = newCollector(residCfg, m.trees)
	} else {
		t.resid.retarget(residCfg, m.round)
	}
}

// stepShardChaos applies the crash schedules at the start of a round: a
// shard crash latches until an explicit ResumeShard clears it, and a
// collector crash — a 1-shard tier's only — downs the shard and the
// root beside it until ResumeCollector.
func (m *Machine) stepShardChaos(round int) {
	t := m.tier
	if t.n == 1 && !m.collectorDown && m.cfg.Chaos.CollectorCrash(round) {
		m.collectorDown = true
		t.down[0] = true
		if m.cfg.Trace != nil {
			m.cfg.Trace.Record(trace.Event{Round: round, Kind: trace.CollectorDead, Node: model.Central})
		}
	}
	for s := 0; s < t.n; s++ {
		if t.down[s] || !m.cfg.Chaos.ShardCrash(s, round) {
			continue
		}
		t.down[s] = true
		if m.cfg.Trace != nil {
			m.cfg.Trace.Record(trace.Event{Round: round, Kind: trace.ShardDead, Node: model.NodeID(s)})
		}
	}
}

// shardAbsorb routes the round's central mailbox to the owning shard
// collectors. Frames for a down shard's trees are lost (leaves with a
// LeafBuffer park them instead of sending); frames for trees no shard
// owns fall through to the residual collector.
func (m *Machine) shardAbsorb(msgs []transport.Message, round int) {
	t := m.tier
	for s := range t.batches {
		t.batches[s] = t.batches[s][:0]
	}
	var residBatch []transport.Message
	for _, msg := range msgs {
		if r := m.trees.byKey[msg.TreeKey]; r != nil && r.shard >= 0 {
			if t.down[r.shard] {
				m.outside.drops++
				m.outside.markersLost += len(msg.Suppressed)
				continue
			}
			t.batches[r.shard] = append(t.batches[r.shard], msg)
			continue
		}
		residBatch = append(residBatch, msg)
	}
	for s, c := range t.colls {
		if !t.down[s] && len(t.batches[s]) > 0 {
			c.absorb(t.batches[s], round)
		}
	}
	t.resid.absorb(residBatch, round)
}

// shardScore adds every collector's score for the round to t — down
// shards score too, accruing the frozen-view error a crashed collector
// earns. Live shards advance their staleness watermark.
func (m *Machine) shardScore(round int, t *tally) {
	tier := m.tier
	for s, c := range tier.colls {
		c.score(round, t)
		if !tier.down[s] {
			tier.watermark[s] = round
		}
	}
	tier.resid.score(round, t)
}

// shardDispatch runs the dispatcher's round: live shards heartbeat,
// deaths orphan their trees, and a live leaseholder re-homes orphans
// and rebalances onto recovered shards. Assignment changes re-scope the
// shard demands and open a new epoch for every moved tree, fencing
// frames composed for the old owner.
func (m *Machine) shardDispatch(round int) {
	t := m.tier
	for s := 0; s < t.n; s++ {
		if !t.down[s] {
			t.disp.Beat(s, round)
		}
	}
	acts := t.disp.Advance(round)
	if m.cfg.Trace != nil {
		movedFrom := make(map[string]int, len(acts.Moves))
		for _, mv := range acts.Moves {
			movedFrom[mv.Key] = mv.From
		}
		orphanSrc := t.disp.Orphans()
		for _, k := range acts.Orphaned {
			src, ok := orphanSrc[k]
			if !ok {
				src = movedFrom[k]
			}
			m.cfg.Trace.Record(trace.Event{Round: round, Kind: trace.Orphan, Node: model.NodeID(src), TreeKey: k})
		}
		if acts.LeaderChanged {
			m.cfg.Trace.Record(trace.Event{Round: round, Kind: trace.Leader, Node: model.NodeID(acts.Leader)})
		}
	}
	if len(acts.Orphaned) == 0 && len(acts.Moves) == 0 && len(acts.Dead) == 0 && len(acts.Recovered) == 0 {
		return
	}
	for _, mv := range acts.Moves {
		if !t.disp.Alive(mv.From) {
			// Moves out of a dead shard are orphan re-dispatches; moves
			// between live shards are rebalances.
			t.redispatched++
		}
		if m.cfg.Trace != nil {
			m.cfg.Trace.Record(trace.Event{
				Round: round, Kind: trace.Redispatch,
				Node: model.NodeID(mv.From), Peer: model.NodeID(mv.To), TreeKey: mv.Key,
			})
		}
	}
	t.place(m.trees)
	if len(acts.Moves) > 0 {
		// Every moved tree opens a new epoch: frames composed for the old
		// owner (or buffered during the outage and not yet re-stamped)
		// cannot leak into the new owner's views.
		moved := make(map[string]bool, len(acts.Moves))
		for _, mv := range acts.Moves {
			moved[mv.Key] = true
		}
		m.trees.open(0, func(k string, _ *treeRec) bool { return moved[k] })
	}
	m.rebuildShardDemands()
}

// ResumeShard restarts a crashed collector shard from journaled state:
// views are wiped and re-seeded from the recovered repository, and the
// shard's trees open an epoch past everything the dead shard could have
// been sent. The dispatcher notices the shard's heartbeat next round and
// rebalances trees back onto it. Before the first round has run the
// shard need not be down — ResumeCollector's cold restart seeds every
// shard from the session's journal this way.
func (m *Machine) ResumeShard(s int, rs ResumeState) error {
	if err := m.resumeShard(s, rs); err != nil {
		return err
	}
	if m.cfg.Trace != nil {
		m.cfg.Trace.Record(trace.Event{Round: m.round, Kind: trace.ShardResume, Node: model.NodeID(s)})
	}
	return nil
}

// resumeShard is ResumeShard without the trace, shared with
// ResumeCollector. Model replicas follow one rule on every shard: a
// cold resume re-arms the replicas newCollector seeded (recover wiped
// them, and the leaves restart from the same snapshots); otherwise the
// checkpointed ones come back gated.
func (m *Machine) resumeShard(s int, rs ResumeState) error {
	t := m.tier
	if s < 0 || s >= t.n {
		return fmt.Errorf("cluster: ResumeShard: shard %d out of [0,%d)", s, t.n)
	}
	if !t.down[s] && m.round > 0 {
		return fmt.Errorf("cluster: ResumeShard: shard %d is not down", s)
	}
	m.trees.open(rs.Epoch, func(_ string, r *treeRec) bool { return r.shard == s })
	t.down[s] = false
	t.colls[s].recover(rs.Repo, m.round)
	if m.round == 0 && len(m.cfg.SeedModels) > 0 {
		t.colls[s].seedModels(m.cfg.SeedModels)
	} else {
		t.colls[s].restoreModels(rs.Models)
	}
	return nil
}

// merged folds the per-shard partials and the residual collector's
// into the single session Result and adds the tier's own counters.
func (t *shardTier) merged() Result {
	res := fold(append(t.colls[:t.n:t.n], t.resid)...)
	res.Shards = t.n
	for _, d := range t.down {
		if d {
			res.ShardsDown++
		}
	}
	res.OrphanedTrees = t.disp.Orphaned()
	res.TreesRedispatched = t.redispatched
	res.LeaderElections = t.disp.Elections()
	res.ShardWatermarks = append([]int(nil), t.watermark...)
	return res
}

// ShardCount returns the number of collector shards (1 for a lone
// collector).
func (m *Machine) ShardCount() int { return m.tier.n }

// ShardAssignment snapshots the tree→shard accountability map (orphans
// included, booked to the dead shard they came from).
func (m *Machine) ShardAssignment() map[string]int {
	out := make(map[string]int, len(m.trees.byKey))
	for k, r := range m.trees.byKey {
		if r.shard >= 0 {
			out[k] = r.shard
		}
	}
	return out
}

// ShardDown reports whether shard s is currently down.
func (m *Machine) ShardDown(s int) bool {
	return s >= 0 && s < m.tier.n && m.tier.down[s]
}

// ShardsDead lists the shards the dispatcher has declared dead,
// ascending: the liveness its orphan queue follows. A crashed shard
// joins once the suspicion window declares it; a lone collector's crash
// never does, because the dispatcher is down with it.
func (m *Machine) ShardsDead() []int {
	var out []int
	for s := 0; s < m.tier.n; s++ {
		if !m.tier.disp.Alive(s) {
			out = append(out, s)
		}
	}
	return out
}

// PendingOrphans lists tree keys awaiting re-dispatch, sorted.
func (m *Machine) PendingOrphans() []string { return m.tier.disp.Pending() }

// ShardMoves returns every re-homing the dispatcher decided so far.
func (m *Machine) ShardMoves() []shard.Move { return m.tier.disp.Moves() }

// ShardLeader returns the dispatcher's current leaseholder.
func (m *Machine) ShardLeader() int { return m.tier.disp.Leader() }

// ShardResults returns the per-shard partial results, one per shard
// plus the residual collector's partial last — the union verify checks
// against the merged Result. Error and staleness are session-wide (the
// machine totals them) and stay zero in a partial.
func (m *Machine) ShardResults() []Result {
	out := make([]Result, 0, m.tier.n+1)
	for _, c := range m.tier.colls {
		out = append(out, fold(c))
	}
	return append(out, fold(m.tier.resid))
}
