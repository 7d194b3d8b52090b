// Package plan defines REMO's monitoring plan structures: collection
// trees, forests of trees, per-node resource usage accounting, plan
// scoring and plan validation.
//
// A plan (Forest) partitions the monitored attributes into disjoint
// attribute sets and assigns each set a collection tree. Within a tree,
// every member node periodically sends one update message to its parent
// carrying its locally observed values plus the values relayed for its
// descendants, for the attributes the tree delivers. Tree roots send to
// the central data collector.
package plan

import (
	"errors"
	"fmt"

	"remo/internal/model"
)

// Errors returned by tree mutations.
var (
	ErrNodeExists    = errors.New("plan: node already in tree")
	ErrNodeMissing   = errors.New("plan: node not in tree")
	ErrParentMissing = errors.New("plan: parent not in tree")
	ErrHasRoot       = errors.New("plan: tree already has a root")
	ErrCentralMember = errors.New("plan: central node cannot be a tree member")
)

// Tree is one collection tree: a set of member nodes with parent links,
// rooted at Root whose parent is the central collector. Attrs is the
// attribute set the tree delivers.
type Tree struct {
	// Attrs is the attribute set assigned to this tree by the partition.
	Attrs model.AttrSet

	root     model.NodeID
	parent   map[model.NodeID]model.NodeID
	children map[model.NodeID][]model.NodeID
}

// NewTree returns an empty tree delivering the given attribute set.
func NewTree(attrs model.AttrSet) *Tree {
	return &Tree{
		Attrs:    attrs,
		root:     model.Central,
		parent:   make(map[model.NodeID]model.NodeID),
		children: make(map[model.NodeID][]model.NodeID),
	}
}

// Root returns the tree's root, or model.Central if the tree is empty.
func (t *Tree) Root() model.NodeID { return t.root }

// Size returns the number of member nodes.
func (t *Tree) Size() int { return len(t.parent) }

// Empty reports whether the tree has no members.
func (t *Tree) Empty() bool { return len(t.parent) == 0 }

// Contains reports whether n is a member of the tree.
func (t *Tree) Contains(n model.NodeID) bool {
	_, ok := t.parent[n]
	return ok
}

// Parent returns the parent of member n. The root's parent is
// model.Central. ok is false if n is not a member.
func (t *Tree) Parent(n model.NodeID) (parent model.NodeID, ok bool) {
	parent, ok = t.parent[n]
	return parent, ok
}

// Children returns the children of n (or of the central node for n ==
// model.Central, which yields the root). The returned slice must not be
// modified.
func (t *Tree) Children(n model.NodeID) []model.NodeID {
	return t.children[n]
}

// Members returns all member nodes in breadth-first order from the root.
func (t *Tree) Members() []model.NodeID {
	if t.Empty() {
		return nil
	}
	// The output is its own BFS queue: out[i] is expanded after every
	// node before it.
	out := make([]model.NodeID, 1, len(t.parent))
	out[0] = t.root
	for i := 0; i < len(out); i++ {
		out = append(out, t.children[out[i]]...)
	}
	return out
}

// PostOrder returns member nodes so that every node appears after all of
// its descendants (children before parents), as needed for bottom-up cost
// computation.
func (t *Tree) PostOrder() []model.NodeID {
	bfs := t.Members()
	for i, j := 0, len(bfs)-1; i < j; i, j = i+1, j-1 {
		bfs[i], bfs[j] = bfs[j], bfs[i]
	}
	return bfs
}

// Depth returns the number of hops from n to the central node (the root
// has depth 1). It returns 0 if n is not a member.
func (t *Tree) Depth(n model.NodeID) int {
	if !t.Contains(n) {
		return 0
	}
	d := 0
	for n != model.Central {
		n = t.parent[n]
		d++
	}
	return d
}

// Height returns the maximum depth over all members (0 for an empty
// tree).
func (t *Tree) Height() int {
	var h int
	depth := map[model.NodeID]int{model.Central: 0}
	for _, n := range t.Members() {
		d := depth[t.parent[n]] + 1
		depth[n] = d
		if d > h {
			h = d
		}
	}
	return h
}

// PathToRoot returns the ancestors of n from its parent up to and
// excluding the central node (so the last element is the tree root). It
// returns nil if n is not a member.
func (t *Tree) PathToRoot(n model.NodeID) []model.NodeID {
	if !t.Contains(n) {
		return nil
	}
	var path []model.NodeID
	for p := t.parent[n]; p != model.Central; p = t.parent[p] {
		path = append(path, p)
	}
	return path
}

// AddNode attaches node n as a child of parent. The first node must use
// model.Central as parent and becomes the root.
func (t *Tree) AddNode(n, parent model.NodeID) error {
	if n.IsCentral() {
		return ErrCentralMember
	}
	if t.Contains(n) {
		return fmt.Errorf("%w: %v", ErrNodeExists, n)
	}
	if parent.IsCentral() {
		if !t.Empty() {
			return fmt.Errorf("%w: cannot attach %v to central", ErrHasRoot, n)
		}
		t.root = n
	} else if !t.Contains(parent) {
		return fmt.Errorf("%w: %v", ErrParentMissing, parent)
	}
	t.parent[n] = parent
	t.children[parent] = append(t.children[parent], n)
	return nil
}

// Subtree returns n and all of its descendants in breadth-first order. It
// returns nil if n is not a member.
func (t *Tree) Subtree(n model.NodeID) []model.NodeID {
	if !t.Contains(n) {
		return nil
	}
	out := []model.NodeID{n}
	for i := 0; i < len(out); i++ {
		out = append(out, t.children[out[i]]...)
	}
	return out
}

// RemoveSubtree detaches n and its whole subtree from the tree, returning
// the removed nodes in breadth-first order (so they can be re-added in
// a valid order). Removing the root empties the tree.
func (t *Tree) RemoveSubtree(n model.NodeID) ([]model.NodeID, error) {
	if !t.Contains(n) {
		return nil, fmt.Errorf("%w: %v", ErrNodeMissing, n)
	}
	removed := t.Subtree(n)
	p := t.parent[n]
	t.children[p] = removeID(t.children[p], n)
	for _, m := range removed {
		delete(t.parent, m)
		delete(t.children, m)
	}
	if n == t.root {
		t.root = model.Central
	}
	return removed, nil
}

// Reparent moves member n (with its subtree) under newParent, which must
// be a member outside n's subtree.
func (t *Tree) Reparent(n, newParent model.NodeID) error {
	if !t.Contains(n) {
		return fmt.Errorf("%w: %v", ErrNodeMissing, n)
	}
	if !t.Contains(newParent) {
		return fmt.Errorf("%w: %v", ErrParentMissing, newParent)
	}
	for _, m := range t.Subtree(n) {
		if m == newParent {
			return fmt.Errorf("plan: reparent %v under its own descendant %v", n, newParent)
		}
	}
	old := t.parent[n]
	t.children[old] = removeID(t.children[old], n)
	t.parent[n] = newParent
	t.children[newParent] = append(t.children[newParent], n)
	return nil
}

// Edge is one parent link of a tree; Parent may be model.Central for the
// root edge.
type Edge struct {
	Child  model.NodeID
	Parent model.NodeID
	// Tree is the attribute-set key of the tree the edge belongs to,
	// distinguishing edges of different trees in forest diffs.
	Tree string
}

// Edges returns the tree's parent links (including the root's link to the
// central node) ordered by child id.
func (t *Tree) Edges() []Edge {
	edges := make([]Edge, 0, len(t.parent))
	key := t.Attrs.Key()
	for _, n := range t.Members() {
		edges = append(edges, Edge{Child: n, Parent: t.parent[n], Tree: key})
	}
	return edges
}

// Clone returns a deep copy of the tree. Maps are sized up front and
// child slices copied exactly, so cloning is a cheap O(members)
// operation — cheap enough that the planner's tree-build memo clones on
// every insert and hit rather than rebuilding trees.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		Attrs:    t.Attrs,
		root:     t.root,
		parent:   make(map[model.NodeID]model.NodeID, len(t.parent)),
		children: make(map[model.NodeID][]model.NodeID, len(t.children)),
	}
	for n, p := range t.parent {
		c.parent[n] = p
	}
	for n, ch := range t.children {
		cp := make([]model.NodeID, len(ch))
		copy(cp, ch)
		c.children[n] = cp
	}
	return c
}

// Fingerprint returns a 64-bit FNV-1a digest of the tree's identity:
// its attribute set and every parent link in deterministic (BFS)
// member order. Two trees with equal fingerprints are, up to hash
// collision, structurally identical — clones share their original's
// fingerprint, which lets tests and the planner's tree-build memo
// compare trees without walking both.
func (t *Tree) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, a := range t.Attrs.Attrs() {
		mix(uint64(a))
	}
	mix(uint64(len(t.parent)))
	for _, n := range t.Members() {
		mix(uint64(n))
		mix(uint64(t.parent[n]))
	}
	return h
}

// Validate checks the structural integrity of the tree: a single root
// attached to the central node and acyclic parent links covering every
// member.
func (t *Tree) Validate() error {
	if t.Empty() {
		return nil
	}
	if !t.Contains(t.root) {
		return fmt.Errorf("plan: root %v not a member", t.root)
	}
	if p := t.parent[t.root]; p != model.Central {
		return fmt.Errorf("plan: root %v has parent %v", t.root, p)
	}
	reached := t.Members()
	if len(reached) != len(t.parent) {
		return fmt.Errorf("plan: tree disconnected: reached %d of %d members",
			len(reached), len(t.parent))
	}
	for n, p := range t.parent {
		if n == t.root {
			continue
		}
		if !t.Contains(p) {
			return fmt.Errorf("plan: member %v has non-member parent %v", n, p)
		}
	}
	return nil
}

func removeID(ids []model.NodeID, n model.NodeID) []model.NodeID {
	for i, x := range ids {
		if x == n {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
