package tree

import (
	"cmp"
	"slices"

	"remo/internal/agg"
	"remo/internal/model"
	"remo/internal/plan"
)

// capEps absorbs floating-point accumulation error in capacity checks.
const capEps = 1e-9

// Parent indices that are not a participant: the root's parent is the
// central collector, and a participant outside the tree has none.
const (
	central = -1
	absent  = -2
)

// state is the mutable bookkeeping of one tree under construction. It
// tracks, per member, the weighted incoming and outgoing value counts per
// attribute dimension, the message cost u_i, and the node's total usage
// (send + receive) in this tree. All mutations keep the bookkeeping
// consistent incrementally, so feasibility checks are O(depth·dims).
//
// A participant is its index in ctx.Nodes; ties still break on node ids.
// The tree's structure and every per-node figure are dense slices over
// those indices; the plan.Tree is built once, in result, with the same
// child order.
//
// When no attribute of the tree uses a non-holistic funnel, the state
// collapses all attributes into a single dimension (out == in always
// holds for holistic collection, so only totals matter).
type state struct {
	ctx   Context
	attrs []model.AttrID // vector mode: one dimension per attribute
	// scalar is true when all attributes are holistic and a single
	// dimension suffices.
	scalar bool
	dims   int

	ids   []model.NodeID
	avail []float64
	// local holds each participant's local demand vector (dims values a
	// node, row-major); in and out hold members' weighted incoming and
	// outgoing counts the same way.
	local, in, out []float64

	parent   []int
	children [][]int
	root     int
	size     int

	// recv is the endpoint cost C + a·y of a member's message (what its
	// parent pays to receive it); u is the member's send cost — the
	// endpoint cost scaled by the distance factor to its parent.
	recv  []float64
	u     []float64
	usage []float64 // send + receive per member

	centralUsage float64

	// scratch is a reusable chain-change buffer, lout a reusable
	// out-vector and mark a reusable per-participant flag.
	scratch []chainChange
	lout    []float64
	mark    []bool
}

func newState(ctx Context) *state {
	n := len(ctx.Nodes)
	s := &state{
		ctx:      ctx,
		scalar:   true,
		ids:      ctx.Nodes,
		avail:    make([]float64, n),
		parent:   make([]int, n),
		children: make([][]int, n),
		root:     absent,
		recv:     make([]float64, n),
		u:        make([]float64, n),
		usage:    make([]float64, n),
		mark:     make([]bool, n),
	}
	for _, a := range ctx.Attrs.Sorted() {
		if ctx.Spec.KindOf(a) != agg.Holistic {
			s.scalar = false
			break
		}
	}
	s.dims = 1
	if !s.scalar {
		s.attrs = ctx.Attrs.Sorted()
		s.dims = len(s.attrs)
	}
	s.local = make([]float64, n*s.dims)
	s.in = make([]float64, n*s.dims)
	s.out = make([]float64, n*s.dims)
	s.lout = make([]float64, s.dims)
	for i, id := range ctx.Nodes {
		s.avail[i] = ctx.Avail[id]
		s.parent[i] = absent
		switch {
		case !s.scalar:
			row := s.row(s.local, i)
			ctx.Demand.VisitLocal(id, ctx.Attrs, func(k int, w float64) { row[k] = w })
		case ctx.LocalWeights != nil:
			s.local[i] = ctx.LocalWeights[id]
		default:
			s.local[i] = ctx.Demand.LocalWeight(id, ctx.Attrs)
		}
	}
	return s
}

// row returns participant i's dims values in a row-major slice.
func (s *state) row(v []float64, i int) []float64 {
	return v[i*s.dims : (i+1)*s.dims : (i+1)*s.dims]
}

// id returns the node id of index i (model.Central for central).
func (s *state) id(i int) model.NodeID {
	if i == central {
		return model.Central
	}
	return s.ids[i]
}

// dist is the distance factor of the edge from i to its parent p.
func (s *state) dist(i, p int) float64 {
	return s.ctx.Sys.Dist(s.ids[i], s.id(p))
}

func (s *state) contains(i int) bool { return s.parent[i] != absent }

// addNode links i under p (central makes i the root).
func (s *state) addNode(i, p int) {
	s.parent[i] = p
	s.size++
	if p == central {
		s.root = i
		return
	}
	s.children[p] = append(s.children[p], i)
}

// subtree returns i and its descendants in breadth-first order.
func (s *state) subtree(i int) []int {
	out := []int{i}
	for k := 0; k < len(out); k++ {
		out = append(out, s.children[out[k]]...)
	}
	return out
}

// members returns every member in breadth-first order from the root.
func (s *state) members() []int {
	if s.size == 0 {
		return nil
	}
	return s.subtree(s.root)
}

// removeSubtree unlinks i and its descendants.
func (s *state) removeSubtree(i int) {
	if p := s.parent[i]; p == central {
		s.root = absent
	} else {
		s.children[p] = slices.DeleteFunc(s.children[p], func(c int) bool { return c == i })
	}
	for _, m := range s.subtree(i) {
		s.parent[m] = absent
		s.children[m] = s.children[m][:0]
		s.size--
	}
}

// localVec returns node n's local demand vector for this tree. The
// returned slice must not be modified.
func (s *state) localVec(n int) []float64 { return s.row(s.local, n) }

// funnel applies the per-attribute funnels to an incoming vector,
// writing the outgoing vector into dst and returning it.
func (s *state) funnel(dst, in []float64) []float64 {
	if s.scalar {
		dst[0] = in[0]
		if dst[0] < 0 {
			dst[0] = 0
		}
		return dst
	}
	for i, a := range s.attrs {
		dst[i] = s.ctx.Spec.Out(a, in[i])
	}
	return dst
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

// headroom is what member n could still spend in this tree.
func (s *state) headroom(n int) float64 { return s.avail[n] - s.usage[n] }

// byHeadroom orders nodes by (headroom desc, id asc), in place.
func (s *state) byHeadroom(nodes []int) {
	slices.SortFunc(nodes, func(a, b int) int {
		switch ha, hb := s.headroom(a), s.headroom(b); {
		case ha > hb:
			return -1
		case ha < hb:
			return 1
		}
		return cmp.Compare(s.ids[a], s.ids[b])
	})
}

// totalUsage sums the tree's capacity consumption over all participants
// in index order and the collector — the quantity the adjusting
// procedure's relay-for-overhead trade must not inflate unprofitably.
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
	node  int
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
func (s *state) chainDeltas(p int, deltaOut []float64, childU float64) (bool, []chainChange, float64) {
	if s.scalar {
		return s.chainDeltasScalar(p, deltaOut[0], childU)
	}
	var changes []chainChange
	recvDelta := childU
	delta := deltaOut
	cur := p
	for cur != central {
		newIn := make([]float64, s.dims)
		copy(newIn, s.row(s.in, cur))
		vecAdd(newIn, delta)
		newOut := s.funnel(newIn, newIn)
		dOut := make([]float64, s.dims)
		for i, o := range s.row(s.out, cur) {
			dOut[i] = newOut[i] - o
		}
		parent := s.parent[cur]
		payloadDelta := s.ctx.Sys.Cost.PerValue * vecSum(dOut)
		sendDelta := payloadDelta * s.dist(cur, parent)
		usageDelta := recvDelta + sendDelta
		if usageDelta > capEps && s.usage[cur]+usageDelta > s.avail[cur]+capEps {
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
func (s *state) chainDeltasScalar(p int, delta, childU float64) (bool, []chainChange, float64) {
	changes := s.scratch[:0]
	recvDelta := childU
	payloadDelta := s.ctx.Sys.Cost.PerValue * delta
	cur := p
	for cur != central {
		parent := s.parent[cur]
		sendDelta := payloadDelta * s.dist(cur, parent)
		usageDelta := recvDelta + sendDelta
		if usageDelta > capEps && s.usage[cur]+usageDelta > s.avail[cur]+capEps {
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
			s.in[c.node] += delta
			s.out[c.node] += c.dOutS
			s.recv[c.node] += c.payloadDelta
			s.u[c.node] += c.sendDelta
			s.usage[c.node] += c.usageDelta
		}
		s.centralUsage += centralDelta
		return
	}
	inDelta := firstInDelta
	for _, c := range changes {
		vecAdd(s.row(s.in, c.node), inDelta)
		vecAdd(s.row(s.out, c.node), c.dOut)
		s.recv[c.node] += c.payloadDelta
		s.u[c.node] += c.sendDelta
		s.usage[c.node] += c.usageDelta
		inDelta = c.dOut
	}
	s.centralUsage += centralDelta
}

// attach adds node n under parent p, updating all bookkeeping. It
// reports false (with no side effects) if the attachment is infeasible.
func (s *state) attach(n, p int) bool {
	if s.contains(n) {
		return false
	}
	lv := s.localVec(n)
	lout := s.funnel(s.lout, lv)
	endpoint := s.msgCost(vecSum(lout))
	un := endpoint * s.dist(n, p)
	if un > s.avail[n]+capEps {
		return false
	}
	var changes []chainChange
	var centralDelta float64
	if p == central {
		if s.size > 0 || s.centralUsage+endpoint > s.ctx.CentralAvail+capEps {
			return false
		}
		centralDelta = endpoint
	} else {
		var ok bool
		if ok, changes, centralDelta = s.chainDeltas(p, lout, endpoint); !ok {
			return false
		}
	}
	s.addNode(n, p)
	copy(s.row(s.in, n), lv)
	copy(s.row(s.out, n), lout)
	s.recv[n] = endpoint
	s.u[n] = un
	s.usage[n] += un
	s.applyChain(changes, lout, centralDelta)
	return true
}

// branch captures a detached subtree so it can be reattached or restored.
type branch struct {
	root int
	// nodes in breadth-first order (root first), and each one's parent,
	// preserving the internal structure.
	nodes, parents []int
	// oldParent is where the branch was attached.
	oldParent int
}

// detachBranch removes the subtree rooted at b, keeping the branch
// members' internal bookkeeping intact so the branch can be reattached
// whole. The ancestor chain is refunded.
func (s *state) detachBranch(b int) branch {
	oldParent := s.parent[b]
	sub := s.subtree(b)
	parents := make([]int, len(sub))
	for i, n := range sub {
		parents[i] = s.parent[n]
	}

	negOut := make([]float64, s.dims)
	for i, x := range s.row(s.out, b) {
		negOut[i] = -x
	}
	if oldParent != central {
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
	s.removeSubtree(b)
	return branch{root: b, nodes: sub, parents: parents, oldParent: oldParent}
}

// relink re-adds a detached branch's structure, its root under p.
func (s *state) relink(br branch, p int) {
	s.addNode(br.root, p)
	for i, n := range br.nodes[1:] {
		s.addNode(n, br.parents[i+1])
	}
}

// attachBranch reattaches a previously detached branch whole under
// newParent, refusing attachments whose total added capacity consumption
// exceeds maxAdd (pass a negative maxAdd for no bound). It reports false
// (restoring nothing) when infeasible; the caller is responsible for
// restoring the branch elsewhere.
func (s *state) attachBranch(br branch, newParent int, maxAdd float64) bool {
	if newParent == central || !s.contains(newParent) {
		return false
	}
	// The root's distance-scaled send cost at the new position must fit
	// its own budget.
	newU := s.recv[br.root] * s.dist(br.root, newParent)
	if s.usage[br.root]+newU > s.avail[br.root]+capEps {
		return false
	}
	ok, changes, centralDelta := s.chainDeltas(newParent, s.row(s.out, br.root), s.recv[br.root])
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
	s.relink(br, newParent)
	s.u[br.root] = newU
	s.usage[br.root] += newU
	s.applyChain(changes, s.row(s.out, br.root), centralDelta)
	return true
}

// restoreBranch puts a detached branch back where it was.
func (s *state) restoreBranch(br branch) bool {
	if br.oldParent != central {
		return s.attachBranch(br, br.oldParent, -1)
	}
	if s.size > 0 {
		return false
	}
	s.relink(br, central)
	newU := s.recv[br.root] * s.dist(br.root, central)
	s.u[br.root] = newU
	s.usage[br.root] += newU
	s.centralUsage += s.recv[br.root]
	return true
}

// dropBranchBookkeeping erases the per-node bookkeeping of a detached
// branch, for node-based reattaching where each node is re-added fresh.
func (s *state) dropBranchBookkeeping(br branch) {
	for _, n := range br.nodes {
		clear(s.row(s.in, n))
		clear(s.row(s.out, n))
		s.recv[n], s.u[n], s.usage[n] = 0, 0, 0
	}
}

// membersByDepth returns current members ordered by (depth asc, available
// headroom desc, id asc) — the attachment preference of the construction
// procedure. It walks the tree one level at a time and sorts each level.
func (s *state) membersByDepth() []int {
	if s.size == 0 {
		return nil
	}
	out := make([]int, 1, s.size)
	out[0] = s.root
	for lo := 0; lo < len(out); {
		hi := len(out)
		s.byHeadroom(out[lo:hi])
		for _, m := range out[lo:hi] {
			out = append(out, s.children[m]...)
		}
		lo = hi
	}
	return out
}

// byEdgeCost reorders candidate parents by the distance factor of the
// would-be edge from n, cheapest first, preserving the scheme's own
// preference order among equal-cost candidates. On a system without a
// distance function the order is untouched, so uniform-priced builds are
// bit-identical to the distance-oblivious algorithm.
func (s *state) byEdgeCost(n int, members []int) []int {
	if s.ctx.Sys.Distance == nil || len(members) < 2 {
		return members
	}
	type cand struct {
		n int
		d float64
	}
	cands := make([]cand, len(members))
	uniform := true
	for i, p := range members {
		cands[i] = cand{p, s.dist(n, p)}
		if cands[i].d != cands[0].d {
			uniform = false
		}
	}
	if uniform {
		return members
	}
	slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(a.d, b.d) })
	for i, c := range cands {
		members[i] = c.n
	}
	return members
}

// result converts the final state into a Result, building the plan.Tree
// breadth-first so every child list keeps its insertion order.
func (s *state) result(excluded []int) Result {
	t := plan.NewTree(s.ctx.Attrs)
	used := make(map[model.NodeID]float64, s.size)
	for _, n := range s.members() {
		_ = t.AddNode(s.ids[n], s.id(s.parent[n]))
		used[s.ids[n]] = s.usage[n]
	}
	var ex []model.NodeID
	for _, n := range excluded {
		ex = append(ex, s.ids[n])
	}
	model.SortNodes(ex)
	return Result{
		Tree:        t,
		Used:        used,
		CentralUsed: s.centralUsage,
		Excluded:    ex,
	}
}
