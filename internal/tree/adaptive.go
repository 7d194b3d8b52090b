package tree

import (
	"slices"
)

// Opts selects the adjusting-procedure variant of the ADAPTIVE builder.
// The zero value is the basic algorithm of §3.2 (node-based reattaching,
// whole-tree search); enabling both flags yields the optimized algorithm
// of §5.1 (up to ~11x faster in the paper, <2% quality penalty).
type Opts struct {
	// BranchReattach moves a pruned branch as a whole instead of
	// breaking it into nodes and reattaching them one at a time.
	BranchReattach bool
	// SubtreeOnly restricts the reattachment search to the congested
	// node's subtree, which by Theorem 1 is sufficient whenever the
	// failed node's resource demand is no larger than the pruned
	// branch's.
	SubtreeOnly bool
}

// adaptiveBuilder is REMO's tree construction algorithm: a STAR-style
// construction procedure iterated with an adjusting procedure that
// relieves congested nodes by pruning their lightest branch and moving it
// deeper, trading relay cost for per-message overhead.
type adaptiveBuilder struct {
	opts Opts
}

// NewAdaptive returns the ADAPTIVE builder with the given adjusting
// options.
func NewAdaptive(opts Opts) Builder {
	return adaptiveBuilder{opts: opts}
}

var _ Builder = adaptiveBuilder{}

// Scheme implements Builder.
func (b adaptiveBuilder) Scheme() Scheme { return Adaptive }

// Build implements Builder.
func (b adaptiveBuilder) Build(ctx Context) Result {
	s := newState(ctx)
	var excluded []int
	// The adjusting budget bounds total tree surgery per build; it is a
	// termination safeguard, sized generously relative to the paper's
	// constructing-adjusting iteration.
	budget := 12*len(ctx.Nodes) + 16

	for _, n := range orderByAvail(s) {
		if attachBest(s, n, pickLowestHeight) {
			continue
		}
		attached := false
		for budget > 0 {
			budget--
			if !b.adjust(s, n) {
				break
			}
			if attachBest(s, n, pickLowestHeight) {
				attached = true
				break
			}
		}
		if !attached {
			excluded = append(excluded, n)
		}
	}
	return s.result(excluded)
}

// adjust performs one adjusting step: find a congested node, prune its
// lightest branch and reattach the branch (or its nodes) deeper. failed
// is the node the construction procedure could not attach; its demand
// decides whether subtree-only searching is safe (Theorem 1). adjust
// reports whether it changed the tree.
func (b adaptiveBuilder) adjust(s *state, failed int) bool {
	failedU := s.msgCost(vecSum(s.funnel(s.lout, s.localVec(failed))))

	for _, dc := range s.membersByDepth() {
		if len(s.children[dc]) < 2 {
			// Pruning an only child cannot reduce the node's degree
			// without emptying its subtree.
			continue
		}
		br, ok := b.lightestBranch(s, dc)
		if !ok {
			continue
		}
		// Theorem 1 applies only when the failed node demands no more
		// than the pruned branch; otherwise search the whole tree.
		subtreeOnly := b.opts.SubtreeOnly && failedU <= s.u[br]+capEps
		if b.moveBranch(s, dc, br, subtreeOnly, failedU) {
			return true
		}
	}
	return false
}

// lightestBranch returns dc's child with the smallest message cost.
func (b adaptiveBuilder) lightestBranch(s *state, dc int) (int, bool) {
	children := s.children[dc]
	if len(children) == 0 {
		return 0, false
	}
	best := children[0]
	for _, c := range children[1:] {
		if s.u[c] < s.u[best] || (s.u[c] == s.u[best] && s.ids[c] < s.ids[best]) {
			best = c
		}
	}
	return best, true
}

// moveBranch prunes the branch rooted at br from dc and reattaches it
// within the search scope. It restores the branch and reports false if no
// reattachment is feasible.
//
// A move trades relay cost for per-message overhead: pushing the branch
// deeper makes every node on the new path relay the branch's payload.
// The trade is only worthwhile if it pays for itself — the extra total
// capacity spent must not exceed the message cost of the node the move
// is trying to accommodate (moveBudget); otherwise the relay bloat
// starves other trees of the plan (§3.2's "minimize the total resource
// consumption ... if it is possible to accommodate more nodes by doing
// so").
func (b adaptiveBuilder) moveBranch(s *state, dc, brRoot int, subtreeOnly bool, moveBudget float64) bool {
	scope := b.scope(s, dc, brRoot, subtreeOnly)
	if len(scope) == 0 {
		return false
	}
	origTotal := s.totalUsage()
	br := s.detachBranch(brRoot)

	if b.opts.BranchReattach {
		// The attachment may add at most what the detach refunded plus
		// the move budget, keeping total usage within origTotal+budget.
		maxAdd := origTotal + moveBudget - s.totalUsage()
		for _, p := range scope {
			if s.attachBranch(br, p, maxAdd) {
				return true
			}
		}
		if !s.restoreBranch(br) {
			// Restoration cannot fail: the capacity just refunded covers
			// exactly the restored charges. Guard anyway.
			s.dropBranchBookkeeping(br)
		}
		return false
	}

	// Node-based reattaching: re-add the branch's nodes one at a time
	// anywhere in the scope (later nodes may also attach under earlier
	// reattached ones).
	saved := branchSnapshot(s, br)
	s.dropBranchBookkeeping(br)
	var added []int
	ok := true
	for _, n := range br.nodes {
		if !b.reattachNode(s, n, dc) {
			ok = false
			break
		}
		added = append(added, n)
	}
	if ok && s.totalUsage()-origTotal > moveBudget+capEps {
		ok = false
	}
	if ok {
		return true
	}
	// Rollback: remove re-added nodes (reverse order keeps children
	// before parents), then restore the original branch.
	for i := len(added) - 1; i >= 0; i-- {
		rb := s.detachBranch(added[i])
		s.dropBranchBookkeeping(rb)
	}
	restoreSnapshot(s, br, saved)
	return false
}

// scope returns candidate parents for the pruned branch ordered by depth
// (deepest last attachments happen near the top first), excluding the
// congested node itself and the branch.
func (b adaptiveBuilder) scope(s *state, dc, brRoot int, subtreeOnly bool) []int {
	inBranch := s.subtree(brRoot)
	for _, n := range inBranch {
		s.mark[n] = true
	}
	var candidates []int
	if subtreeOnly {
		candidates = s.subtree(dc)
	} else {
		candidates = s.members()
	}
	out := candidates[:0]
	for _, n := range candidates {
		if n != dc && !s.mark[n] {
			out = append(out, n)
		}
	}
	for _, n := range inBranch {
		s.mark[n] = false
	}
	// Prefer parents with the most headroom; attaching the branch to a
	// roomy node keeps future attachments possible.
	s.byHeadroom(out)
	return out
}

// reattachNode re-adds one node of a broken-up branch, preferring
// low-height parents but never the congested node dc.
func (b adaptiveBuilder) reattachNode(s *state, n, dc int) bool {
	for _, p := range s.membersByDepth() {
		if p == dc {
			continue
		}
		if s.attach(n, p) {
			return true
		}
	}
	return false
}

// nodeBook is saved bookkeeping for rollback of node-based reattaching.
type nodeBook struct {
	in, out []float64
	recv    float64
	u       float64
	usage   float64
}

// branchSnapshot saves the bookkeeping of br's nodes, in br.nodes order.
func branchSnapshot(s *state, br branch) []nodeBook {
	snap := make([]nodeBook, len(br.nodes))
	for i, n := range br.nodes {
		snap[i] = nodeBook{
			in:    slices.Clone(s.row(s.in, n)),
			out:   slices.Clone(s.row(s.out, n)),
			recv:  s.recv[n],
			u:     s.u[n],
			usage: s.usage[n],
		}
	}
	return snap
}

func restoreSnapshot(s *state, br branch, snap []nodeBook) {
	for i, n := range br.nodes {
		bk := snap[i]
		copy(s.row(s.in, n), bk.in)
		copy(s.row(s.out, n), bk.out)
		s.recv[n] = bk.recv
		s.u[n] = bk.u
		s.usage[n] = bk.usage
	}
	// Match the detached convention — the root's send cost is recharged
	// by restoreBranch at the attachment point.
	s.usage[br.root] -= s.u[br.root]
	s.u[br.root] = 0
	// Rebuild structure and recharge the ancestor chain.
	restored := s.restoreBranch(br)
	if !restored {
		s.dropBranchBookkeeping(br)
	}
}
