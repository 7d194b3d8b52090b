package tree

import (
	"cmp"
	"slices"
)

// pickFunc orders candidate parents for attaching node n; the first
// feasible candidate wins. Every scheme offers every member and defers
// to byEdgeCost first, so on a distance-priced system (racks, WAN
// regions) cheap edges beat the scheme's shape preference and trees
// cluster by locality. The returned slice is read only.
type pickFunc func(s *state, n int) []int

// pickLowestHeight prefers parents close to the root (STAR: bushy trees).
func pickLowestHeight(s *state, n int) []int {
	return s.byEdgeCost(n, s.membersByDepth())
}

// pickHighestHeight prefers the deepest parents (CHAIN: long trees).
func pickHighestHeight(s *state, n int) []int {
	members := append(s.bufPick[:0], s.membersByDepth()...)
	slices.Reverse(members)
	s.bufPick = members
	return s.byEdgeCost(n, members)
}

// pickMaxAvailable prefers the parent with the most remaining headroom
// (the TMON MAX_AVB heuristic).
func pickMaxAvailable(s *state, n int) []int {
	members := s.members(s.bufPick)
	s.byHeadroom(members)
	s.bufPick = members
	return s.byEdgeCost(n, members)
}

// simpleBuilder adds nodes in order of decreasing available capacity,
// attaching each to the first feasible parent in the scheme's preference
// order. No adjustment is performed once the tree saturates.
type simpleBuilder struct {
	scheme Scheme
	pick   pickFunc
}

var _ Builder = simpleBuilder{}

// Scheme implements Builder.
func (b simpleBuilder) Scheme() Scheme { return b.scheme }

// Build implements Builder.
func (b simpleBuilder) Build(ctx Context) Result {
	s := newState(ctx)
	var excluded []int
	for _, n := range orderByAvail(s) {
		if !attachBest(s, n, b.pick) {
			excluded = append(excluded, n)
		}
	}
	return s.result(excluded)
}

// orderByAvail returns the participants in decreasing order of available
// capacity (ties by id), the insertion order shared by all schemes. On a
// distance-priced system the cheapest-to-collector candidate is promoted
// to the front: the first insertion becomes the tree root, and the
// root→collector edge carries the whole tree's aggregate every round, so
// the root should sit as close to the collector as the candidate set
// allows.
func orderByAvail(s *state) []int {
	nodes := make([]int, len(s.ids))
	for i := range nodes {
		nodes[i] = i
	}
	slices.SortFunc(nodes, func(a, b int) int {
		if c := cmp.Compare(s.avail[b], s.avail[a]); c != 0 {
			return c
		}
		return cmp.Compare(s.ids[a], s.ids[b])
	})
	if s.ctx.Sys.Distance != nil && len(nodes) > 1 {
		best := 0
		for i := 1; i < len(nodes); i++ {
			if s.dist(nodes[i], central) < s.dist(nodes[best], central) {
				best = i
			}
		}
		if best != 0 {
			root := nodes[best]
			copy(nodes[1:best+1], nodes[:best])
			nodes[0] = root
		}
	}
	return nodes
}

// attachBest attaches n to the first feasible parent in pick's order, or
// as root if the tree is empty.
//
// Two exact shortcuts skip the parent scan when it cannot succeed, and
// attach never changes anything when it fails. On a distance-free
// system every edge costs n's endpoint cost, so a node that cannot pay
// it from its own budget fits nowhere. On a monotone state, once no
// parent could take a payload x at this version, none can take a larger
// one: every capacity check along a chain only grows with x.
func attachBest(s *state, n int, pick pickFunc) bool {
	endpoint, x := s.endpoint(n)
	if s.ctx.Sys.Distance == nil && endpoint > s.avail[n]+capEps {
		return false
	}
	if s.monotone && s.noAttachVer == s.version && x >= s.noAttachX {
		return false
	}
	if s.size == 0 {
		if s.attach(n, central) {
			return true
		}
	} else {
		for _, p := range pick(s, n) {
			if s.attach(n, p) {
				return true
			}
		}
	}
	if s.monotone && (s.noAttachVer != s.version || x < s.noAttachX) {
		s.noAttachVer, s.noAttachX = s.version, x
	}
	return false
}
