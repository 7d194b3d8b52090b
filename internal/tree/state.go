package tree

import (
	"sort"

	"remo/internal/agg"
	"remo/internal/model"
	"remo/internal/plan"
)

// capEps absorbs floating-point accumulation error in capacity checks.
const capEps = 1e-9

// state is the mutable bookkeeping of one tree under construction. It
// tracks, per member, the weighted incoming and outgoing value counts per
// attribute dimension, the message cost u_i, and the node's total usage
// (send + receive) in this tree. All mutations keep the bookkeeping
// consistent incrementally, so feasibility checks are O(depth·dims).
//
// When no attribute of the tree uses a non-holistic funnel, the state
// collapses all attributes into a single dimension (out == in always
// holds for holistic collection, so only totals matter).
type state struct {
	ctx   Context
	tree  *plan.Tree
	attrs []model.AttrID // vector mode: one dimension per attribute
	// scalar is true when all attributes are holistic and a single
	// dimension suffices.
	scalar bool

	in  map[model.NodeID][]float64
	out map[model.NodeID][]float64
	// recv is the endpoint cost C + a·y of a member's message (what its
	// parent pays to receive it); u is the member's send cost — the
	// endpoint cost scaled by the distance factor to its parent.
	recv  map[model.NodeID]float64
	u     map[model.NodeID]float64
	usage map[model.NodeID]float64 // send + receive per member

	centralUsage float64

	// localW caches per-node local demand totals (scalar mode's hot
	// path); scratch is a reusable chain-change buffer.
	localW  map[model.NodeID]float64
	scratch []chainChange
}

func newState(ctx Context) *state {
	s := &state{
		ctx:    ctx,
		tree:   plan.NewTree(ctx.Attrs),
		in:     make(map[model.NodeID][]float64),
		out:    make(map[model.NodeID][]float64),
		recv:   make(map[model.NodeID]float64),
		u:      make(map[model.NodeID]float64),
		usage:  make(map[model.NodeID]float64),
		localW: make(map[model.NodeID]float64),
	}
	s.scalar = true
	for _, a := range ctx.Attrs.Attrs() {
		if ctx.Spec.KindOf(a) != agg.Holistic {
			s.scalar = false
			break
		}
	}
	if !s.scalar {
		s.attrs = ctx.Attrs.Attrs()
	}
	return s
}

// dims returns the number of tracked value dimensions.
func (s *state) dims() int {
	if s.scalar {
		return 1
	}
	return len(s.attrs)
}

// localVec returns node n's local demand vector for this tree.
func (s *state) localVec(n model.NodeID) []float64 {
	if s.scalar {
		return []float64{s.localWeight(n)}
	}
	v := make([]float64, len(s.attrs))
	for i, a := range s.attrs {
		v[i] = s.ctx.Demand.Weight(n, a)
	}
	return v
}

// localWeight returns (and caches) node n's total local demand weight.
func (s *state) localWeight(n model.NodeID) float64 {
	if s.ctx.LocalWeights != nil {
		return s.ctx.LocalWeights[n]
	}
	if w, ok := s.localW[n]; ok {
		return w
	}
	w := s.ctx.Demand.LocalWeight(n, s.ctx.Attrs)
	s.localW[n] = w
	return w
}

// funnel applies the per-attribute funnels to an incoming vector.
func (s *state) funnel(in []float64) []float64 {
	out := make([]float64, len(in))
	if s.scalar {
		copy(out, in)
		if out[0] < 0 {
			out[0] = 0
		}
		return out
	}
	for i, a := range s.attrs {
		out[i] = s.ctx.Spec.Out(a, in[i])
	}
	return out
}

func vecSum(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum
}

func vecAdd(dst, delta []float64) {
	for i := range dst {
		dst[i] += delta[i]
	}
}

func vecZero(v []float64) bool {
	for _, x := range v {
		if x > capEps || x < -capEps {
			return false
		}
	}
	return true
}

// msgCost returns C + a·y for a weighted value total y.
func (s *state) msgCost(y float64) float64 {
	return s.ctx.Sys.Cost.PerMessage + s.ctx.Sys.Cost.PerValue*y
}

func (s *state) avail(n model.NodeID) float64 {
	return s.ctx.Avail[n]
}

// totalUsage sums the tree's capacity consumption over all members and
// the collector — the quantity the adjusting procedure's relay-for-
// overhead trade must not inflate unprofitably.
func (s *state) totalUsage() float64 {
	var sum float64
	for _, u := range s.usage {
		sum += u
	}
	return sum + s.centralUsage
}

// chainChange is one recorded mutation along an ancestor chain. In
// scalar (all-holistic) mode dOut is nil and dOutS carries the constant
// out-delta instead.
type chainChange struct {
	node  model.NodeID
	dOut  []float64
	dOutS float64
	// payloadDelta is the endpoint-cost change of the node's message
	// (what its parent's receive cost changes by); sendDelta is the
	// distance-scaled change of the node's own send cost.
	payloadDelta float64
	sendDelta    float64
	usageDelta   float64
}

// chainDeltas computes the bookkeeping changes along the ancestor chain
// starting at parent p when a child message changes: childU is the delta
// in the receive cost at p (a full ±(C+a·y) for a new/removed child, or
// ±a·Δy for a growing/shrinking existing child), and deltaOut is the
// change in the child's outgoing value vector. It reports whether all
// affected nodes (and the central collector) stay within capacity;
// charges (positive deltas) are checked, refunds always fit.
func (s *state) chainDeltas(p model.NodeID, deltaOut []float64, childU float64) (bool, []chainChange, float64) {
	if s.scalar {
		return s.chainDeltasScalar(p, deltaOut[0], childU)
	}
	var changes []chainChange
	recvDelta := childU
	delta := deltaOut
	cur := p
	for !cur.IsCentral() {
		newIn := make([]float64, s.dims())
		copy(newIn, s.in[cur])
		vecAdd(newIn, delta)
		newOut := s.funnel(newIn)
		dOut := make([]float64, s.dims())
		for i := range dOut {
			dOut[i] = newOut[i] - s.out[cur][i]
		}
		parent, _ := s.tree.Parent(cur)
		payloadDelta := s.ctx.Sys.Cost.PerValue * vecSum(dOut)
		sendDelta := payloadDelta * s.ctx.Sys.Dist(cur, parent)
		usageDelta := recvDelta + sendDelta
		if usageDelta > capEps && s.usage[cur]+usageDelta > s.avail(cur)+capEps {
			return false, nil, 0
		}
		changes = append(changes, chainChange{
			node:         cur,
			dOut:         dOut,
			payloadDelta: payloadDelta,
			sendDelta:    sendDelta,
			usageDelta:   usageDelta,
		})
		if vecZero(dOut) {
			// A saturated funnel absorbed the change: nothing propagates
			// further up the chain.
			return true, changes, 0
		}
		recvDelta = payloadDelta
		delta = dOut
		cur = parent
	}
	// The central collector pays the root's receive delta.
	if recvDelta > capEps && s.centralUsage+recvDelta > s.ctx.CentralAvail+capEps {
		return false, nil, 0
	}
	return true, changes, recvDelta
}

// chainDeltasScalar is the allocation-free fast path for all-holistic
// trees: the funnel is the identity, so the out-delta is the same
// constant at every node on the chain.
func (s *state) chainDeltasScalar(p model.NodeID, delta, childU float64) (bool, []chainChange, float64) {
	changes := s.scratch[:0]
	recvDelta := childU
	payloadDelta := s.ctx.Sys.Cost.PerValue * delta
	cur := p
	for !cur.IsCentral() {
		parent, _ := s.tree.Parent(cur)
		sendDelta := payloadDelta * s.ctx.Sys.Dist(cur, parent)
		usageDelta := recvDelta + sendDelta
		if usageDelta > capEps && s.usage[cur]+usageDelta > s.avail(cur)+capEps {
			return false, nil, 0
		}
		changes = append(changes, chainChange{
			node:         cur,
			dOutS:        delta,
			payloadDelta: payloadDelta,
			sendDelta:    sendDelta,
			usageDelta:   usageDelta,
		})
		recvDelta = payloadDelta
		cur = parent
	}
	if recvDelta > capEps && s.centralUsage+recvDelta > s.ctx.CentralAvail+capEps {
		return false, nil, 0
	}
	s.scratch = changes[:0]
	return true, changes, recvDelta
}

// applyChain applies previously computed chain changes. The delta vectors
// recorded per node are the node's own out-delta; its in-delta is the
// previous node's out-delta (or attachDelta for the first node).
func (s *state) applyChain(changes []chainChange, firstInDelta []float64, centralDelta float64) {
	if s.scalar {
		// Identity funnel: every node's in- and out-delta equal the
		// first in-delta.
		delta := firstInDelta[0]
		for _, c := range changes {
			s.in[c.node][0] += delta
			s.out[c.node][0] += c.dOutS
			s.recv[c.node] += c.payloadDelta
			s.u[c.node] += c.sendDelta
			s.usage[c.node] += c.usageDelta
		}
		s.centralUsage += centralDelta
		return
	}
	inDelta := firstInDelta
	for _, c := range changes {
		vecAdd(s.in[c.node], inDelta)
		vecAdd(s.out[c.node], c.dOut)
		s.recv[c.node] += c.payloadDelta
		s.u[c.node] += c.sendDelta
		s.usage[c.node] += c.usageDelta
		inDelta = c.dOut
	}
	s.centralUsage += centralDelta
}

// attach adds node n under parent p, updating all bookkeeping. It
// reports false (with no side effects) if the attachment is infeasible.
func (s *state) attach(n, p model.NodeID) bool {
	lv := s.localVec(n)
	lout := s.funnel(lv)
	endpoint := s.msgCost(vecSum(lout))
	un := endpoint * s.ctx.Sys.Dist(n, p)
	if un > s.avail(n)+capEps {
		return false
	}
	if p.IsCentral() {
		if !s.tree.Empty() || s.centralUsage+endpoint > s.ctx.CentralAvail+capEps {
			return false
		}
		if err := s.tree.AddNode(n, p); err != nil {
			return false
		}
		s.in[n] = lv
		s.out[n] = lout
		s.recv[n] = endpoint
		s.u[n] = un
		s.usage[n] += un
		s.centralUsage += endpoint
		return true
	}
	ok, changes, centralDelta := s.chainDeltas(p, lout, endpoint)
	if !ok {
		return false
	}
	if err := s.tree.AddNode(n, p); err != nil {
		return false
	}
	s.in[n] = lv
	s.out[n] = lout
	s.recv[n] = endpoint
	s.u[n] = un
	s.usage[n] += un
	s.applyChain(changes, lout, centralDelta)
	return true
}

// branch captures a detached subtree so it can be reattached or restored.
type branch struct {
	root model.NodeID
	// nodes in breadth-first order (root first).
	nodes []model.NodeID
	// parentOf preserves the internal structure.
	parentOf map[model.NodeID]model.NodeID
	// oldParent is where the branch was attached.
	oldParent model.NodeID
}

// detachBranch removes the subtree rooted at b, keeping the branch
// members' internal bookkeeping intact so the branch can be reattached
// whole. The ancestor chain is refunded.
func (s *state) detachBranch(b model.NodeID) branch {
	oldParent, _ := s.tree.Parent(b)
	sub := s.tree.Subtree(b)
	parentOf := make(map[model.NodeID]model.NodeID, len(sub))
	for _, n := range sub {
		p, _ := s.tree.Parent(n)
		parentOf[n] = p
	}

	negOut := make([]float64, s.dims())
	for i, x := range s.out[b] {
		negOut[i] = -x
	}
	if !oldParent.IsCentral() {
		ok, changes, centralDelta := s.chainDeltas(oldParent, negOut, -s.recv[b])
		if ok { // refunds always succeed
			s.applyChain(changes, negOut, centralDelta)
		}
	} else {
		s.centralUsage -= s.recv[b]
	}
	// The branch root's send cost is parent-dependent: refund it now and
	// recharge at the new attachment point.
	s.usage[b] -= s.u[b]
	s.u[b] = 0
	_, _ = s.tree.RemoveSubtree(b)
	return branch{root: b, nodes: sub, parentOf: parentOf, oldParent: oldParent}
}

// attachBranch reattaches a previously detached branch whole under
// newParent, refusing attachments whose total added capacity consumption
// exceeds maxAdd (pass a negative maxAdd for no bound). It reports false
// (restoring nothing) when infeasible; the caller is responsible for
// restoring the branch elsewhere.
func (s *state) attachBranch(br branch, newParent model.NodeID, maxAdd float64) bool {
	if newParent.IsCentral() {
		return false
	}
	if !s.tree.Contains(newParent) {
		return false
	}
	// The root's distance-scaled send cost at the new position must fit
	// its own budget.
	newU := s.recv[br.root] * s.ctx.Sys.Dist(br.root, newParent)
	if s.usage[br.root]+newU > s.avail(br.root)+capEps {
		return false
	}
	ok, changes, centralDelta := s.chainDeltas(newParent, s.out[br.root], s.recv[br.root])
	if !ok {
		return false
	}
	if maxAdd >= 0 {
		totalAdd := newU + centralDelta
		for _, c := range changes {
			totalAdd += c.usageDelta
		}
		if totalAdd > maxAdd+capEps {
			return false
		}
	}
	// Rebuild the branch structure.
	if err := s.tree.AddNode(br.root, newParent); err != nil {
		return false
	}
	for _, n := range br.nodes[1:] {
		if err := s.tree.AddNode(n, br.parentOf[n]); err != nil {
			// Structure was captured from a valid tree; failure here is a
			// programming error, surface it by undoing the root.
			_, _ = s.tree.RemoveSubtree(br.root)
			return false
		}
	}
	s.u[br.root] = newU
	s.usage[br.root] += newU
	s.applyChain(changes, s.out[br.root], centralDelta)
	return true
}

// restoreBranch puts a detached branch back where it was.
func (s *state) restoreBranch(br branch) bool {
	if br.oldParent.IsCentral() {
		if !s.tree.Empty() {
			return false
		}
		if err := s.tree.AddNode(br.root, model.Central); err != nil {
			return false
		}
		for _, n := range br.nodes[1:] {
			_ = s.tree.AddNode(n, br.parentOf[n])
		}
		newU := s.recv[br.root] * s.ctx.Sys.Dist(br.root, model.Central)
		s.u[br.root] = newU
		s.usage[br.root] += newU
		s.centralUsage += s.recv[br.root]
		return true
	}
	return s.attachBranch(branch{
		root:     br.root,
		nodes:    br.nodes,
		parentOf: br.parentOf,
	}, br.oldParent, -1)
}

// dropBranchBookkeeping erases the per-node bookkeeping of a detached
// branch, for node-based reattaching where each node is re-added fresh.
func (s *state) dropBranchBookkeeping(br branch) {
	for _, n := range br.nodes {
		delete(s.in, n)
		delete(s.out, n)
		delete(s.recv, n)
		delete(s.u, n)
		delete(s.usage, n)
	}
}

// memberKey is a precomputed sort key, avoiding map lookups inside sort
// comparators (the construction procedure's hottest path).
type memberKey struct {
	n        model.NodeID
	depth    int
	headroom float64
}

// membersByDepth returns current members ordered by (depth asc, available
// headroom desc, id asc) — the attachment preference of the construction
// procedure.
func (s *state) membersByDepth() []model.NodeID {
	members := s.tree.Members()
	keys := make([]memberKey, len(members))
	depth := make(map[model.NodeID]int, len(members))
	for i, n := range members {
		p, _ := s.tree.Parent(n)
		d := depth[p] + 1
		depth[n] = d
		keys[i] = memberKey{n: n, depth: d, headroom: s.avail(n) - s.usage[n]}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		if a.headroom != b.headroom {
			return a.headroom > b.headroom
		}
		return a.n < b.n
	})
	for i, k := range keys {
		members[i] = k.n
	}
	return members
}

// byEdgeCost reorders candidate parents by the distance factor of the
// would-be edge from n, cheapest first, preserving the scheme's own
// preference order among equal-cost candidates. On a system without a
// distance function the order is untouched, so uniform-priced builds are
// bit-identical to the distance-oblivious algorithm.
func (s *state) byEdgeCost(n model.NodeID, members []model.NodeID) []model.NodeID {
	if s.ctx.Sys.Distance == nil || len(members) < 2 {
		return members
	}
	d := make([]float64, len(members))
	uniform := true
	for i, p := range members {
		d[i] = s.ctx.Sys.Dist(n, p)
		if d[i] != d[0] {
			uniform = false
		}
	}
	if uniform {
		return members
	}
	idx := make([]int, len(members))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	out := make([]model.NodeID, len(members))
	for i, k := range idx {
		out[i] = members[k]
	}
	return out
}

// result converts the final state into a Result.
func (s *state) result(excluded []model.NodeID) Result {
	used := make(map[model.NodeID]float64, len(s.usage))
	for n, u := range s.usage {
		if s.tree.Contains(n) {
			used[n] = u
		}
	}
	model.SortNodes(excluded)
	return Result{
		Tree:        s.tree,
		Used:        used,
		CentralUsed: s.centralUsage,
		Excluded:    excluded,
	}
}
