package plan

import (
	"errors"
	"fmt"
	"sort"

	"remo/internal/agg"
	"remo/internal/model"
	"remo/internal/task"
)

// Forest is a complete monitoring plan: a set of collection trees whose
// attribute sets form a partition of (a subset of) the demanded
// attributes.
type Forest struct {
	Trees []*Tree
}

// NewForest returns an empty forest.
func NewForest() *Forest { return &Forest{} }

// Add appends a tree to the forest.
func (f *Forest) Add(t *Tree) { f.Trees = append(f.Trees, t) }

// Clone returns a deep copy of the forest.
func (f *Forest) Clone() *Forest {
	c := &Forest{Trees: make([]*Tree, len(f.Trees))}
	for i, t := range f.Trees {
		c.Trees[i] = t.Clone()
	}
	return c
}

// Fingerprint returns a 64-bit digest of the whole plan: the sorted
// tree fingerprints folded through FNV-1a. It is independent of tree
// order, so two forests holding the same trees compare equal — the
// identity a durable session journals to tell whether a replanned
// topology matches the one installed before a crash.
func (f *Forest) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	fps := make([]uint64, 0, len(f.Trees))
	for _, t := range f.Trees {
		fps = append(fps, t.Fingerprint())
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	h := uint64(offset64)
	for _, fp := range fps {
		for i := 0; i < 8; i++ {
			h ^= fp & 0xff
			h *= prime64
			fp >>= 8
		}
	}
	return h
}

// TreeFor returns the tree delivering attribute a, or nil if none does.
func (f *Forest) TreeFor(a model.AttrID) *Tree {
	for _, t := range f.Trees {
		if t.Attrs.Contains(a) {
			return t
		}
	}
	return nil
}

// Partition returns the attribute sets of the forest's trees.
func (f *Forest) Partition() []model.AttrSet {
	sets := make([]model.AttrSet, len(f.Trees))
	for i, t := range f.Trees {
		sets[i] = t.Attrs
	}
	return sets
}

// Stats holds the evaluated resource profile of a forest.
type Stats struct {
	// PerTree are the tree-level profiles, parallel to Forest.Trees. A
	// planner shares them between the plans it evaluates: read only.
	PerTree []TreeStats
	// Usage is every node's summed usage across all trees.
	Usage map[model.NodeID]float64
	// CentralUsage is the central collector's receive cost (sum of root
	// message costs).
	CentralUsage float64
	// Collected is the number of node-attribute pairs delivered to the
	// central node — the planner's objective.
	Collected int
	// TotalCost is the total capacity consumed by the plan per collection
	// round (all sends and receives, including the central node's).
	TotalCost float64
}

// ComputeStats evaluates the forest against demand d on system sys with
// aggregation spec (nil for holistic).
func (f *Forest) ComputeStats(d *task.Demand, sys *model.System, spec *agg.Spec) Stats {
	perTree := make([]TreeStats, len(f.Trees))
	for i, t := range f.Trees {
		perTree[i] = ComputeTreeStats(t, d, sys, spec)
	}
	return SumStats(perTree)
}

// SumStats folds per-tree profiles, in forest order, into the forest's
// profile. Every float is summed in a fixed order — trees in forest
// order, then nodes ascending — so equal forests give bit-equal stats.
func SumStats(perTree []TreeStats) Stats {
	st := Stats{
		PerTree: perTree,
		Usage:   SumUsage(perTree),
	}
	for _, ts := range perTree {
		st.CentralUsage += ts.RootSend
		st.Collected += ts.LocalPairs
	}
	nodes := make([]model.NodeID, 0, len(st.Usage))
	for n := range st.Usage {
		nodes = append(nodes, n)
	}
	model.SortNodes(nodes)
	for _, n := range nodes {
		st.TotalCost += st.Usage[n]
	}
	st.TotalCost += st.CentralUsage
	return st
}

// SumUsage is Stats.Usage: every node's usage summed over the trees, in
// tree order.
func SumUsage(perTree []TreeStats) map[model.NodeID]float64 {
	usage := make(map[model.NodeID]float64)
	for _, ts := range perTree {
		for n, u := range ts.Usage {
			usage[n] += u
		}
	}
	return usage
}

// Score is the planner's plan-comparison key: more collected pairs wins;
// ties break toward lower total cost.
type Score struct {
	Collected int
	TotalCost float64
}

// Better reports whether s is strictly better than o.
func (s Score) Better(o Score) bool {
	if s.Collected != o.Collected {
		return s.Collected > o.Collected
	}
	return s.TotalCost < o.TotalCost-1e-9
}

// Score extracts the comparison key from stats.
func (st Stats) Score() Score {
	return Score{Collected: st.Collected, TotalCost: st.TotalCost}
}

// Validation errors.
var (
	ErrOverlappingSets = errors.New("plan: tree attribute sets overlap")
	ErrNonParticipant  = errors.New("plan: tree member demands none of the tree's attributes")
	ErrOverCapacity    = errors.New("plan: node capacity exceeded")
	ErrUnknownMember   = errors.New("plan: tree member not in system")
)

// Validate checks that the forest is a legal plan for demand d on system
// sys: structurally sound trees, disjoint attribute sets, members that
// actually demand tree attributes, and no capacity violations under the
// aggregation spec.
func (f *Forest) Validate(d *task.Demand, sys *model.System, spec *agg.Spec) error {
	for i, t := range f.Trees {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
		if t.Attrs.Empty() {
			return fmt.Errorf("tree %d: empty attribute set", i)
		}
		for j := i + 1; j < len(f.Trees); j++ {
			if t.Attrs.IntersectsAny(f.Trees[j].Attrs) {
				return fmt.Errorf("%w: trees %d and %d", ErrOverlappingSets, i, j)
			}
		}
		for _, n := range t.Members() {
			if _, ok := sys.Node(n); !ok {
				return fmt.Errorf("%w: %v in tree %d", ErrUnknownMember, n, i)
			}
			if d.LocalCount(n, t.Attrs) == 0 {
				return fmt.Errorf("%w: %v in tree %v", ErrNonParticipant, n, t.Attrs)
			}
		}
	}

	st := f.ComputeStats(d, sys, spec)
	const eps = 1e-6
	for n, u := range st.Usage {
		if u > sys.Capacity(n)+eps {
			return fmt.Errorf("%w: %v uses %.3f of %.3f", ErrOverCapacity, n, u, sys.Capacity(n))
		}
	}
	if st.CentralUsage > sys.CentralCapacity+eps {
		return fmt.Errorf("%w: central uses %.3f of %.3f",
			ErrOverCapacity, st.CentralUsage, sys.CentralCapacity)
	}
	return nil
}

// CollectedPairs returns the node-attribute pairs the plan delivers,
// ordered by node then attribute.
func (f *Forest) CollectedPairs(d *task.Demand) []model.Pair {
	var pairs []model.Pair
	for _, t := range f.Trees {
		for _, n := range t.Members() {
			for _, a := range d.LocalAttrs(n, t.Attrs) {
				pairs = append(pairs, model.Pair{Node: n, Attr: a})
			}
		}
	}
	model.SortPairs(pairs)
	return pairs
}

// MissedPairs returns the demanded pairs the plan does not deliver
// (nodes excluded from their attribute's tree, or attributes assigned to
// no tree).
func (f *Forest) MissedPairs(d *task.Demand) []model.Pair {
	covered := make(map[model.Pair]struct{})
	for _, p := range f.CollectedPairs(d) {
		covered[p] = struct{}{}
	}
	var missed []model.Pair
	for _, p := range d.Pairs() {
		if _, ok := covered[p]; !ok {
			missed = append(missed, p)
		}
	}
	return missed
}

// Edges returns every parent link in the forest, sorted by tree key then
// child, for adaptation-cost accounting.
func (f *Forest) Edges() []Edge {
	var edges []Edge
	for _, t := range f.Trees {
		edges = append(edges, t.Edges()...)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Tree != edges[j].Tree {
			return edges[i].Tree < edges[j].Tree
		}
		return edges[i].Child < edges[j].Child
	})
	return edges
}

// DiffEdges counts the parent links present in exactly one of the two
// forests — the number of connect/disconnect control messages needed to
// move the running overlay from plan a to plan b.
func DiffEdges(a, b *Forest) int {
	setA := make(map[Edge]struct{})
	for _, e := range a.Edges() {
		setA[e] = struct{}{}
	}
	diff := 0
	for _, e := range b.Edges() {
		if _, ok := setA[e]; ok {
			delete(setA, e)
		} else {
			diff++
		}
	}
	return diff + len(setA)
}
