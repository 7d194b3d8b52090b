// Package tree implements REMO's resource-constrained collection tree
// construction schemes.
//
// Given a set of participant nodes, each with a (weighted) number of
// local values to report and an available capacity for this tree, a
// builder produces a collection tree that includes as many nodes as
// possible without violating any node's capacity, under the cost model
// cost(msg) = C + a·x.
//
// Four schemes are provided, matching §3.2 and §7 of the paper:
//
//   - STAR: grows breadth-first (bushy trees, minimal relay cost, heavy
//     per-message overhead at low-level nodes).
//   - CHAIN: grows depth-first (balanced load, maximal relay cost).
//   - MAX_AVB: attaches to the node with the most available capacity
//     (the TMON heuristic, Kashyap et al.).
//   - ADAPTIVE: REMO's construct/adjust iteration that starts STAR-like
//     and relieves congested nodes by moving branches deeper, trading
//     relay cost for per-message overhead.
package tree

import (
	"math"

	"remo/internal/agg"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
)

// Scheme names a tree construction algorithm.
type Scheme string

// Available schemes.
const (
	Star     Scheme = "STAR"
	Chain    Scheme = "CHAIN"
	MaxAvb   Scheme = "MAX_AVB"
	Adaptive Scheme = "ADAPTIVE"
)

// Context carries everything a builder needs to construct one tree.
type Context struct {
	// Sys provides the cost model (capacities are superseded by Avail,
	// which reflects the planner's per-tree allocation decision).
	Sys *model.System
	// Demand is the deduplicated monitoring workload.
	Demand *task.Demand
	// Spec is the in-network aggregation specification (nil = holistic).
	Spec *agg.Spec
	// Attrs is the attribute set the tree delivers.
	Attrs model.AttrSet
	// Nodes are the participants to place (nodes demanding at least one
	// attribute of Attrs).
	Nodes []model.NodeID
	// Avail is the capacity each participant may spend on this tree,
	// index-aligned with Nodes.
	Avail []float64
	// CentralAvail is the central collector's remaining capacity.
	CentralAvail float64
	// LocalWeights optionally pre-computes each participant's total
	// local demand weight for Attrs, index-aligned with Nodes (a
	// planner-level cache; builders fall back to querying Demand).
	LocalWeights []float64
}

// Result is the outcome of one tree construction.
type Result struct {
	// Tree is the constructed collection tree (possibly empty).
	Tree *plan.Tree
	// Nodes are the participants (Context.Nodes); Used is index-aligned
	// with them.
	Nodes []model.NodeID
	// Used is each participant's capacity consumption in this tree, 0
	// for a participant left out.
	Used []float64
	// CentralUsed is the receive cost charged to the central collector.
	CentralUsed float64
	// Excluded are participants that could not be placed without
	// violating a capacity constraint.
	Excluded []model.NodeID
}

// Fingerprint returns a 64-bit digest of the whole build outcome: the
// constructed tree's structure plus every capacity charge (per-node
// usage quantized to 1e-9 cost units, the central charge, and the
// excluded set). Two builds with equal fingerprints are
// interchangeable, which is what the planner's cross-evaluation
// tree-build memo relies on and what determinism tests assert without
// comparing trees edge by edge.
func (r Result) Fingerprint() uint64 {
	const prime64 = 1099511628211
	var h uint64 = 14695981039346656037
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	if r.Tree != nil {
		mix(r.Tree.Fingerprint())
		for i, n := range r.Nodes {
			if r.Tree.Contains(n) {
				mix(uint64(n))
				mix(uint64(int64(math.Round(r.Used[i] * 1e9))))
			}
		}
	}
	mix(uint64(int64(math.Round(r.CentralUsed * 1e9))))
	for _, n := range r.Excluded {
		mix(uint64(n))
	}
	return h
}

// Builder constructs one collection tree.
type Builder interface {
	// Scheme returns the builder's scheme name.
	Scheme() Scheme
	// Build constructs a tree for ctx.
	Build(ctx Context) Result
}

// New returns the builder for scheme. ADAPTIVE uses the optimized
// adjusting procedure (branch-based reattaching + subtree-only searching);
// use NewAdaptive for explicit control. Unknown schemes fall back to
// ADAPTIVE.
func New(scheme Scheme) Builder {
	switch scheme {
	case Star:
		return simpleBuilder{scheme: Star, pick: pickLowestHeight}
	case Chain:
		return simpleBuilder{scheme: Chain, pick: pickHighestHeight}
	case MaxAvb:
		return simpleBuilder{scheme: MaxAvb, pick: pickMaxAvailable}
	case Adaptive:
		return NewAdaptive(Opts{BranchReattach: true, SubtreeOnly: true})
	default:
		return NewAdaptive(Opts{BranchReattach: true, SubtreeOnly: true})
	}
}

// Schemes lists all scheme names in presentation order.
func Schemes() []Scheme {
	return []Scheme{Star, Chain, MaxAvb, Adaptive}
}
