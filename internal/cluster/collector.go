package cluster

import (
	"math"

	"remo/internal/agg"
	"remo/internal/model"
	"remo/internal/predict"
	"remo/internal/store"
	"remo/internal/trace"
	"remo/internal/transport"
)

// collector implements the central data collector: it absorbs root
// messages, maintains the freshest known view of every demanded pair,
// and scores coverage, staleness and percentage error each round.
//
// Demanded holistic pairs live in dense parallel arrays indexed by
// slot, so the per-round scoring loop and the per-value absorb path
// touch at most one map (the pair-to-slot index) instead of three.
// Pairs outside the current demand — stale views kept across a
// retarget, and deliveries for pairs the demand no longer names — spill
// into overflow maps so adaptation semantics are unchanged.
type collector struct {
	cfg Config
	// trees is the machine's tree table, which fences frames by epoch.
	trees *treeTable

	// holisticPairs are the demanded pairs collected holistically, in
	// canonical order; periods, views, viewSet and seen are parallel to
	// it. views[i] is meaningful only when viewSet[i]; seen[i] dedups the
	// slot's delivered rounds.
	holisticPairs []model.Pair
	periods       []int
	views         []transport.Value
	viewSet       []bool
	seen          []roundWindow
	slotOf        map[model.Pair]int

	// Suppression replica state, parallel to holisticPairs (allocated
	// only when cfg.Predict is set). preds[i] is created by the slot's
	// first sync marker (or seeded on a cold resume); predLive[i] gates
	// imputation — it drops on any detected gap in the slot's update
	// stream and is revived only by a sync; predLast[i] is the origin
	// round of the slot's last replica advance.
	preds    []predict.Model
	predLive []bool
	predLast []int

	// Overflow state for pairs without a slot.
	extraView map[model.Pair]transport.Value
	extraSeen map[model.Pair]roundWindow

	// aggView holds the freshest delivered aggregate per aggregated
	// attribute.
	aggView map[model.AttrID]transport.Value
	// aggAttrs are attributes collected via in-network aggregation; each
	// counts as one logical observation target.
	aggAttrs        []model.AttrID
	aggParticipants map[model.AttrID][]model.NodeID

	delivered int
	expected  int

	valuesDelivered int
	centralDrops    int
	// staleFrames counts frames rejected by epoch fencing at the
	// collector — pre-crash or pre-swap traffic a resumed session must
	// not absorb.
	staleFrames int

	// Suppression accounting (see the Result fields of the same names).
	valuesImputed int
	modelSyncs    int
	markersLost   int
	imputeBandMax float64
}

func newCollector(cfg Config, trees *treeTable) *collector {
	c := &collector{
		trees:     trees,
		aggView:   make(map[model.AttrID]transport.Value),
		extraView: make(map[model.Pair]transport.Value),
		extraSeen: make(map[model.Pair]roundWindow),
	}
	c.retarget(cfg, 0)
	c.seedModels(cfg.SeedModels)
	return c
}

// seedModels arms demanded slots with cold-resume replicas: the leaves
// were seeded from the same snapshots (Config.SeedModels), so both
// ends are in lockstep from round zero and imputation can start
// immediately. predLast is backdated one period so the first due round
// passes the gap check.
func (c *collector) seedModels(models map[model.Pair]predict.Snapshot) {
	if c.preds == nil || len(models) == 0 {
		return
	}
	for p, sn := range models {
		slot, ok := c.slotOf[p]
		if !ok {
			continue
		}
		c.preds[slot] = predict.FromSnapshot(sn)
		c.predLive[slot] = true
		c.predLast[slot] = -c.periods[slot]
	}
}

// restoreModels installs checkpointed replicas after an in-process
// crash recovery — gated, not live: the leaves kept advancing their
// replicas with predictions while the collector was down, so the
// checkpoint cannot be assumed current. Imputation stays refused until
// each slot's next sync re-locks it; the restore is defense in depth
// (warm state survives for diagnostics and future relaxations).
func (c *collector) restoreModels(models map[model.Pair]predict.Snapshot) {
	if c.preds == nil || len(models) == 0 {
		return
	}
	for p, sn := range models {
		slot, ok := c.slotOf[p]
		if !ok {
			continue
		}
		c.preds[slot] = predict.FromSnapshot(sn)
		c.predLive[slot] = false
	}
}

// predSnapshots appends every materialized replica's snapshot to the
// given map (allocating it on first use) for journal checkpoints.
func (c *collector) predSnapshots(into map[model.Pair]predict.Snapshot) map[model.Pair]predict.Snapshot {
	for i, p := range c.holisticPairs {
		if i < len(c.preds) && c.preds[i] != nil {
			if into == nil {
				into = make(map[model.Pair]predict.Snapshot)
			}
			into[p] = c.preds[i].Snapshot()
		}
	}
	return into
}

// retarget rebuilds the collector's demanded-pair accounting for a new
// configuration (topology adaptation) before round, keeping its views
// and error accumulators. Views and delivery windows of pairs leaving
// the demand are parked in the overflow maps; pairs rejoining pick them
// back up — exactly what a real collector's retained state would do. A
// parked window whose newest round is a full span behind round is
// dropped: no delivery lags that far, so its next mark would clear it.
func (c *collector) retarget(cfg Config, round int) {
	for i, p := range c.holisticPairs {
		if c.viewSet[i] {
			c.extraView[p] = c.views[i]
		}
		if c.seen[i].bits != nil {
			c.extraSeen[p] = c.seen[i]
		}
	}
	for p, w := range c.extraSeen {
		if round-w.newest >= 64*len(w.bits) {
			delete(c.extraSeen, p)
		}
	}
	c.cfg = cfg
	c.aggAttrs = nil
	c.aggParticipants = make(map[model.AttrID][]model.NodeID)

	periodOf := make(map[model.Pair]int)
	pairs := c.holisticPairs[:0]
	seenAgg := make(map[model.AttrID]struct{})
	for _, p := range cfg.Demand.Pairs() {
		orig := cfg.Resolve(p.Attr)
		if cfg.Spec.KindOf(orig) != agg.Holistic {
			c.aggParticipants[orig] = append(c.aggParticipants[orig], p.Node)
			if _, dup := seenAgg[orig]; !dup {
				seenAgg[orig] = struct{}{}
				c.aggAttrs = append(c.aggAttrs, orig)
			}
			continue
		}
		fold := model.Pair{Node: p.Node, Attr: orig}
		period := weightPeriod(cfg.Demand.Weight(p.Node, p.Attr))
		if prev, dup := periodOf[fold]; dup {
			// Replicated pair: keep the fastest period.
			if period < prev {
				periodOf[fold] = period
			}
			continue
		}
		periodOf[fold] = period
		pairs = append(pairs, fold)
	}
	model.SortPairs(pairs)
	model.SortAttrs(c.aggAttrs)

	n := len(pairs)
	c.holisticPairs = pairs
	c.periods = make([]int, n)
	c.views = make([]transport.Value, n)
	c.viewSet = make([]bool, n)
	c.seen = make([]roundWindow, n)
	c.slotOf = make(map[model.Pair]int, n)
	if cfg.Predict != nil {
		// Replicas do not survive a retarget: slots may have moved and the
		// leaves force a sync on every plan swap anyway, so the worst case
		// is one refusal window (≤ SyncEvery rounds) after a shard
		// re-dispatch, where leaves are not rebuilt.
		c.preds = make([]predict.Model, n)
		c.predLive = make([]bool, n)
		c.predLast = make([]int, n)
	} else {
		c.preds, c.predLive, c.predLast = nil, nil, nil
	}
	for i, p := range pairs {
		c.slotOf[p] = i
		c.periods[i] = periodOf[p]
		if v, ok := c.extraView[p]; ok {
			c.views[i] = v
			c.viewSet[i] = true
			delete(c.extraView, p)
		}
		if w, ok := c.extraSeen[p]; ok {
			c.seen[i] = w
			delete(c.extraSeen, p)
		}
	}
}

// recover rebuilds the collector after a crash: every in-memory view is
// wiped — a restarted collector knows only what its journal preserved —
// and the demanded slots are re-seeded from the recovered repository's
// newest samples. Aggregate views are not re-seeded (the repository
// stores them under the aggregating node's identity); they refresh on
// the next delivery.
func (c *collector) recover(repo *store.Store, round int) {
	c.holisticPairs = nil
	c.periods, c.views, c.viewSet, c.seen = nil, nil, nil, nil
	c.slotOf = nil
	c.extraView = make(map[model.Pair]transport.Value)
	c.extraSeen = make(map[model.Pair]roundWindow)
	c.aggView = make(map[model.AttrID]transport.Value)
	c.retarget(c.cfg, round)
	if repo == nil {
		return
	}
	for i, p := range c.holisticPairs {
		smp, ok := repo.Latest(p)
		if !ok {
			continue
		}
		// Clamp the seeded view's round below the current one so the
		// staleness accounting never sees a view from the future (cold
		// resumes restart the round clock at zero).
		r := smp.Round
		if r >= round {
			r = round - 1
		}
		c.views[i] = transport.Value{Node: p.Node, Attr: p.Attr, Round: r, Value: smp.Value}
		c.viewSet[i] = true
	}
}

// lookupView returns the freshest delivered view of a pair, demanded or
// not.
func (c *collector) lookupView(p model.Pair) (transport.Value, bool) {
	if slot, ok := c.slotOf[p]; ok {
		return c.views[slot], c.viewSet[slot]
	}
	v, ok := c.extraView[p]
	return v, ok
}

// absorb ingests the central mailbox for one round.
func (c *collector) absorb(msgs []transport.Message, round int) {
	budget := c.cfg.Sys.CentralCapacity
	for _, msg := range msgs {
		if _, epoch := c.trees.lookup(msg.TreeKey); msg.Epoch < epoch {
			c.staleFrames++
			c.markersLost += len(msg.Suppressed)
			continue
		}
		cost := c.cfg.Sys.Cost.Message(len(msg.Values))
		if c.cfg.EnforceCapacity && cost > budget {
			c.centralDrops++
			c.markersLost += len(msg.Suppressed)
			continue
		}
		budget -= cost
		if c.cfg.Trace != nil {
			c.cfg.Trace.Record(trace.Event{
				Round: round, Kind: trace.Deliver, Node: model.Central,
				Peer: msg.From, TreeKey: msg.TreeKey, Values: len(msg.Values),
			})
		}
		for _, v := range msg.Values {
			c.valuesDelivered++
			orig := c.cfg.Resolve(v.Attr)
			if c.cfg.Observer != nil {
				c.cfg.Observer(model.Pair{Node: v.Node, Attr: orig}, v.Round, v.Value)
			}
			if c.cfg.Spec.KindOf(orig) != agg.Holistic {
				if cur, ok := c.aggView[orig]; !ok || v.Round >= cur.Round {
					c.aggView[orig] = v
				}
				continue
			}
			pair := model.Pair{Node: v.Node, Attr: orig}
			if slot, ok := c.slotOf[pair]; ok {
				if !c.viewSet[slot] || v.Round >= c.views[slot].Round {
					c.views[slot] = v
					c.viewSet[slot] = true
				}
				c.markSlot(slot, v.Round)
				if c.preds != nil {
					c.advanceReplica(slot, v, isSynced(msg.Syncs, v))
				}
			} else {
				if cur, ok := c.extraView[pair]; !ok || v.Round >= cur.Round {
					c.extraView[pair] = v
				}
				c.markExtra(pair, v.Round)
			}
		}
		for _, sp := range msg.Suppressed {
			c.impute(sp)
		}
	}
}

// isSynced reports whether the value carries a sync marker — the leaf
// reset its replica and re-seeded it from exactly this value. Frames
// carry at most a handful of sync entries, so a linear scan beats a
// lookup structure.
func isSynced(syncs []transport.Supp, v transport.Value) bool {
	for _, sy := range syncs {
		if sy.Node == v.Node && sy.Attr == v.Attr && sy.Round == v.Round {
			return true
		}
	}
	return false
}

// advanceReplica applies one transmitted value to a slot's replica,
// mirroring the leaf's bookkeeping. A sync resets and re-seeds the
// replica (creating it on first contact) and revives imputation; a
// plain value advances the replica only when it is the next expected
// update — any gap means frames were lost and the leaf's replica moved
// without us, so imputation is refused until the next sync.
func (c *collector) advanceReplica(slot int, v transport.Value, synced bool) {
	if synced {
		m := c.preds[slot]
		if m == nil {
			m = c.cfg.Predict.New(c.holisticPairs[slot].Attr)
			c.preds[slot] = m
		}
		m.Reset()
		m.Observe(v.Value)
		c.predLive[slot] = true
		c.predLast[slot] = v.Round
		c.modelSyncs++
		return
	}
	m := c.preds[slot]
	if m == nil || !c.predLive[slot] {
		return
	}
	switch {
	case v.Round == c.predLast[slot]+c.periods[slot]:
		m.Observe(v.Value)
		c.predLast[slot] = v.Round
	case v.Round > c.predLast[slot]:
		c.predLive[slot] = false
	}
	// v.Round <= predLast: late duplicate — the replica already moved
	// past it; ignore.
}

// impute reconstructs one suppressed slot from the collector's replica
// and stores it as a delivered view. Refusals (no live lockstep
// replica, or the marker is not the next expected update) count the
// marker lost — the protocol never imputes a value it cannot bound.
func (c *collector) impute(sp transport.Supp) {
	orig := c.cfg.Resolve(sp.Attr)
	pair := model.Pair{Node: sp.Node, Attr: orig}
	slot, ok := c.slotOf[pair]
	if !ok || c.preds == nil {
		c.markersLost++
		return
	}
	m := c.preds[slot]
	if m == nil || !c.predLive[slot] || !m.Ready() {
		c.markersLost++
		return
	}
	if sp.Round != c.predLast[slot]+c.periods[slot] {
		if sp.Round > c.predLast[slot] {
			// Gap: updates between predLast and this marker were lost, so
			// the leaf's replica advanced without us.
			c.predLive[slot] = false
		}
		c.markersLost++
		return
	}
	imputed := m.Predict()
	m.Observe(imputed)
	c.predLast[slot] = sp.Round
	c.valuesImputed++
	// Track the realized band ratio against ground truth: bit-identical
	// replicas make imputed == the leaf's prediction, which the leaf
	// verified within band, so the ratio stays ≤ 1.
	truth := c.cfg.Source.Value(pair.Node, pair.Attr, sp.Round)
	band := c.cfg.Predict.Band(pair.Attr, truth)
	if ratio := math.Abs(imputed-truth) / band; ratio > c.imputeBandMax {
		c.imputeBandMax = ratio
	}
	if c.cfg.Observer != nil {
		c.cfg.Observer(pair, sp.Round, imputed)
	}
	if !c.viewSet[slot] || sp.Round >= c.views[slot].Round {
		c.views[slot] = transport.Value{Node: pair.Node, Attr: pair.Attr, Round: sp.Round, Value: imputed}
		c.viewSet[slot] = true
	}
	c.markSlot(slot, sp.Round)
}

// markSlot records delivery of a demanded (pair, round) observation.
func (c *collector) markSlot(slot, round int) {
	if c.seen[slot].mark(round, c.cfg.dedup) {
		c.delivered++
	}
}

// markExtra records delivery for a pair outside the current demand (it
// may have been demanded before a retarget, or become demanded later).
func (c *collector) markExtra(p model.Pair, round int) {
	w := c.extraSeen[p]
	if w.mark(round, c.cfg.dedup) {
		c.delivered++
	}
	c.extraSeen[p] = w
}

// windows counts the delivery windows the collector holds.
func (c *collector) windows() int {
	n := len(c.extraSeen)
	for _, w := range c.seen {
		if w.bits != nil {
			n++
		}
	}
	return n
}

// dedupRounds and minDedupRounds bound how many recent rounds a pair
// remembers deliveries of: at most 8 KiB a pair, and at least 512 B.
const (
	dedupRounds    = 1 << 16
	minDedupRounds = 1 << 12
)

// dedupSpan is how many rounds each pair's delivery window covers in a
// machine of cfg: twice the worst lag of a delivery behind its origin
// round, rounded up to a whole word and kept within [minDedupRounds,
// dedupRounds], or the run's length when a fixed-length run is shorter.
// A value climbs its tree one hop a round, through at most every node;
// chaos may delay each hop's frame by up to max(1, MaxDelayRounds) more
// rounds; a root's outbox holds at most LeafBuffer frames after an
// outage, drained at least one a round; and a TCP retry lands in its own
// round.
func dedupSpan(cfg Config) int {
	hop := 1
	if cfg.Chaos != nil && cfg.Chaos.DelayProb > 0 {
		hop += min(dedupRounds, max(1, cfg.Chaos.MaxDelayRounds))
	}
	lag := len(cfg.Sys.Nodes)*hop + cfg.LeafBuffer
	span := min(dedupRounds, max(minDedupRounds, 2*((lag+63)/64*64)))
	if cfg.Rounds > 0 && cfg.Rounds < span {
		span = cfg.Rounds
	}
	return span
}

// roundWindow dedups one pair's delivered rounds over a sliding window
// ending at the newest round delivered, so a session counts deliveries
// for as long as it runs, in bounded memory.
type roundWindow struct {
	// newest is the newest round marked. Round r is bit r mod 64 of word
	// r/64 mod len(bits) for the span rounds up to newest, except that
	// newest's word lives in cur, so a pair delivered every round
	// touches bits once per 64 rounds; bits keeps that word's slot,
	// stale, until the window moves past it. bits is allocated on the
	// first delivery.
	newest int
	cur    uint64
	bits   []uint64
}

// mark records round r and reports whether it is a first delivery. The
// window spans the whole words that cover span rounds (dedupRounds when
// span is not positive). A round older than the window cannot be told
// from a duplicate and is not counted.
func (w *roundWindow) mark(r, span int) bool {
	if r < 0 {
		return false
	}
	if w.bits == nil {
		if span <= 0 || span > dedupRounds {
			span = dedupRounds
		}
		w.bits = make([]uint64, (span+63)/64)
		w.newest = r
	}
	n := len(w.bits)
	switch {
	case r-w.newest >= 64*n:
		clear(w.bits)
		w.cur, w.newest = 0, r
	case r > w.newest && r/64 == w.newest/64:
		// Clear the rounds after newest up to r, all in cur's word.
		w.cur &^= (2<<uint(r%64) - 1) &^ (2<<uint(w.newest%64) - 1)
		w.newest = r
	case r > w.newest:
		// Clear the rounds after newest: the rest of its word, which goes
		// back to its slot, the words between, and r's word up to r,
		// whose later rounds are the window's oldest.
		w.bits[w.newest/64%n] = w.cur & (2<<uint(w.newest%64) - 1)
		for q := w.newest/64 + 1; q < r/64; q++ {
			w.bits[q%n] = 0
		}
		w.cur = w.bits[r/64%n] &^ (2<<uint(r%64) - 1)
		w.newest = r
	case r <= w.newest-64*n:
		return false
	}
	word, bit := &w.cur, uint64(1)<<uint(r%64)
	if r/64%n != w.newest/64%n {
		word = &w.bits[r/64%n]
	}
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// errUnit is the integer unit a tally counts relative error in: 2^-32,
// so a round's tally is exact and overflows only past 2^32 targets.
const errUnit = 1 << 32

// tally is one round's score: exact integer sums, so adding the tallies
// of collectors that split the demand gives the same totals however the
// targets are split.
type tally struct {
	// err sums the targets' relative errors in units of 1/errUnit over
	// pairs targets; stale sums the ages in rounds of the fresh targets
	// that hold a view.
	err          uint64
	pairs        int
	stale, fresh int
}

// add scores one target's view against its truth.
func (t *tally) add(v transport.Value, truth float64, round int) {
	t.pairs++
	t.err += uint64(math.Round(relErr(v.Value, truth) * errUnit))
	t.stale += round - v.Round
	t.fresh++
}

// miss scores a target without a view: full error, and no truth needed.
func (t *tally) miss() {
	t.pairs++
	t.err += errUnit
}

// score adds round's error and staleness over every demanded target to
// t, after round's messages were absorbed. Ground truth is read only
// for targets that hold a view.
func (c *collector) score(round int, t *tally) {
	for i, p := range c.holisticPairs {
		if round%c.periods[i] == 0 {
			c.expected++
		}
		if !c.viewSet[i] {
			t.miss()
			continue
		}
		t.add(c.views[i], c.cfg.Source.Value(p.Node, p.Attr, round), round)
	}
	for _, a := range c.aggAttrs {
		c.expected++
		v, ok := c.aggView[a]
		if !ok {
			t.miss()
			continue
		}
		t.add(v, c.aggTruth(a, round), round)
	}
}

// aggTruth computes the ground-truth aggregate of attribute a over its
// participants at the given round.
func (c *collector) aggTruth(a model.AttrID, round int) float64 {
	parts := c.aggParticipants[a]
	raw := make([]float64, len(parts))
	for i, n := range parts {
		raw[i] = c.cfg.Source.Value(n, a, round)
	}
	combined := agg.Combine(c.cfg.Spec.KindOf(a), c.cfg.Spec.K(a), raw)
	if len(combined) == 0 {
		return 0
	}
	return combined[0]
}

// relErr is the relative error capped at 100%. A non-finite observation
// or truth counts as full error.
func relErr(observed, truth float64) float64 {
	denom := math.Abs(truth)
	if denom < 1e-9 {
		denom = 1e-9
	}
	e := math.Abs(observed-truth) / denom
	if !(e <= 1) {
		e = 1
	}
	return e
}

// deliveredEffective is the delivered-observation count used for the
// collection-rate metric. Aggregated attributes count one delivery per
// refreshed round; folding them into the delivered counter via their
// views' ages is overkill — coverage and error already capture them, so
// an aggregate view refreshed to round r approximates r+1 observations.
func (c *collector) deliveredEffective() int {
	d := c.delivered
	for _, a := range c.aggAttrs {
		if v, ok := c.aggView[a]; ok {
			d += v.Round + 1
		}
	}
	return d
}

// covered counts demanded pairs (and aggregated attributes) with at
// least one delivered view.
func (c *collector) covered() int {
	n := 0
	for _, set := range c.viewSet {
		if set {
			n++
		}
	}
	for _, a := range c.aggAttrs {
		if _, ok := c.aggView[a]; ok {
			n++
		}
	}
	return n
}

// fold sums the partial results of collectors that split one demand.
// Error and staleness are the machine's: it totals every round's tally.
func fold(colls ...*collector) Result {
	var res Result
	var delivered, expected int
	for _, c := range colls {
		res.DemandedPairs += len(c.holisticPairs) + len(c.aggAttrs)
		res.CoveredPairs += c.covered()
		res.ValuesDelivered += c.valuesDelivered
		res.MessagesDropped += c.centralDrops
		res.StaleEpochFrames += c.staleFrames
		res.ValuesImputed += c.valuesImputed
		res.ModelSyncs += c.modelSyncs
		res.MarkersLost += c.markersLost
		res.ImputeBandMax = max(res.ImputeBandMax, c.imputeBandMax)
		delivered += c.deliveredEffective()
		expected += c.expected
	}
	if expected > 0 {
		res.PercentCollected = min(100, 100*float64(delivered)/float64(expected))
	}
	return res
}
