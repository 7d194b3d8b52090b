// Package partition implements attribute-set partitioning: the baseline
// singleton-set (SP) and one-set (OP) schemes, the merge and split
// operations that define REMO's search neighborhood, and the gain
// estimation that guides the local search (§3.1 of the paper).
package partition

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"remo/internal/model"
	"remo/internal/task"
)

// Singleton returns the singleton-set partition: one set, and hence one
// collection tree, per attribute (the PIER approach).
func Singleton(universe model.AttrSet) []model.AttrSet {
	attrs := universe.Attrs()
	sets := make([]model.AttrSet, len(attrs))
	for i, a := range attrs {
		sets[i] = model.NewAttrSet(a)
	}
	return sets
}

// OneSet returns the one-set partition: a single tree delivering every
// attribute.
func OneSet(universe model.AttrSet) []model.AttrSet {
	if universe.Empty() {
		return nil
	}
	return []model.AttrSet{universe}
}

// OpKind distinguishes merge and split operations.
type OpKind int

// Operation kinds.
const (
	// MergeOp replaces sets I and J with their union (A_i ⋈ A_j).
	MergeOp OpKind = iota + 1
	// SplitOp removes Attr from set I into a new singleton set
	// (A_i ▷ α).
	SplitOp
)

// Op is one neighborhood move on a partition.
type Op struct {
	Kind OpKind
	// I and J index the partition's sets; J is unused for splits.
	I, J int
	// Attr is the attribute split out; unused for merges.
	Attr model.AttrID
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if o.Kind == MergeOp {
		return fmt.Sprintf("merge(%d,%d)", o.I, o.J)
	}
	return fmt.Sprintf("split(%d,%v)", o.I, o.Attr)
}

// Apply returns the neighboring partition produced by op. The input is
// not modified. Sets keep stable positions where possible: a merge
// writes the union at min(I,J) and drops the other; a split shrinks set I
// in place and appends the new singleton.
func Apply(sets []model.AttrSet, op Op) []model.AttrSet {
	out := make([]model.AttrSet, 0, len(sets)+1)
	switch op.Kind {
	case MergeOp:
		lo, hi := op.I, op.J
		if lo > hi {
			lo, hi = hi, lo
		}
		for i, s := range sets {
			switch i {
			case lo:
				out = append(out, sets[lo].Union(sets[hi]))
			case hi:
				// dropped
			default:
				out = append(out, s)
			}
		}
	case SplitOp:
		for i, s := range sets {
			if i == op.I {
				rem := s.Remove(op.Attr)
				if !rem.Empty() {
					out = append(out, rem)
				}
			} else {
				out = append(out, s)
			}
		}
		out = append(out, model.NewAttrSet(op.Attr))
	}
	return out
}

// Neighbors enumerates every one-step move from the partition: all set
// pair merges and all single-attribute splits of non-singleton sets.
func Neighbors(sets []model.AttrSet) []Op {
	return NeighborsScoped(sets, func(int) bool { return true })
}

// NeighborsScoped enumerates the one-step moves that touch a dirty
// neighborhood: merges where at least one side is dirty, and splits of
// dirty non-singleton sets. dirty reports whether set i belongs to the
// neighborhood. With d dirty sets out of k this is O(d·k) moves instead
// of Neighbors' O(k²) — the structural basis of incremental replanning.
func NeighborsScoped(sets []model.AttrSet, dirty func(int) bool) []Op {
	var ops []Op
	for i := 0; i < len(sets); i++ {
		di := dirty(i)
		for j := i + 1; j < len(sets); j++ {
			if di || dirty(j) {
				ops = append(ops, Op{Kind: MergeOp, I: i, J: j})
			}
		}
	}
	for i, s := range sets {
		if s.Len() < 2 || !dirty(i) {
			continue
		}
		for _, a := range s.Attrs() {
			ops = append(ops, Op{Kind: SplitOp, I: i, Attr: a})
		}
	}
	return ops
}

// Candidate pairs a move with its estimated gain.
type Candidate struct {
	Op Op
	// Gain estimates the total capacity-usage reduction (in cost units)
	// of applying the move; larger is more promising.
	Gain float64
}

// GainContext supplies the state the estimator needs: the demand, the
// cost model's parameters and, when available, the number of pairs each
// current tree failed to collect (index-aligned with the partition).
type GainContext struct {
	Demand *task.Demand
	// PerMessage and PerValue are the cost model parameters C and a.
	PerMessage float64
	PerValue   float64
	// Missed[i] is the number of demanded pairs tree i could not collect
	// in the current plan (nil when unknown).
	Missed []int
	// AttrBits optionally supplies each attribute's demanding nodes as a
	// bitset over one dense node order (a planner-level cache); nil
	// derives them from Demand.
	AttrBits map[model.AttrID][]uint64
}

// attrBits resolves the per-attribute node bitsets.
func (ctx GainContext) attrBits() map[model.AttrID][]uint64 {
	if ctx.AttrBits != nil {
		return ctx.AttrBits
	}
	at := make(map[model.NodeID]int)
	for i, n := range ctx.Demand.Nodes() {
		at[n] = i
	}
	return ctx.Demand.AttrNodeBits(func(n model.NodeID) int { return at[n] })
}

// Rank estimates the gain of every neighborhood move and returns the
// candidates sorted by decreasing gain, ties in enumeration order. This
// is the guided part of REMO's guided local search: only the most
// promising candidates are worth the expensive resource-aware
// evaluation.
//
// The estimator follows the paper's rationale (the appendix with the
// exact formula is not publicly available): a merge saves one message —
// the per-message overhead C — per node that participates in both trees;
// a split relieves a tree that misses pairs (each missed pair is
// evidence of congestion the split can spread over two trees), at the
// price of an extra message per node left in both resulting trees. The
// resource-aware evaluation decides acceptance; the estimate only orders
// candidates.
func Rank(sets []model.AttrSet, ctx GainContext) []Candidate {
	return Top(sets, ctx, nil, nil, 0)
}

// Top ranks the moves of the partition's neighborhood — only those
// touching a dirty set when dirty is non-nil (see NeighborsScoped) —
// that allow admits (all when nil), and returns the k best in Rank's
// order: exactly the first k of Rank's list after dropping the moves
// allow refuses. k <= 0 returns them all.
//
// Overlaps are popcounts: a set's participants are the OR of its
// attributes' node bitsets, so no participant list is built or merged.
func Top(sets []model.AttrSet, ctx GainContext, dirty func(int) bool, allow func(Op) bool, k int) []Candidate {
	var ops []Op
	if dirty == nil {
		ops = Neighbors(sets)
	} else {
		ops = NeighborsScoped(sets, dirty)
	}
	bitsOf := ctx.attrBits()
	words := 0
	for _, s := range sets {
		for _, a := range s.Sorted() {
			words = max(words, len(bitsOf[a]))
		}
	}
	// One row of words per set: the OR of its attributes' bitsets.
	parts := make([]uint64, len(sets)*words)
	part := func(i int) []uint64 { return parts[i*words : (i+1)*words] }
	for i, s := range sets {
		for _, a := range s.Sorted() {
			orInto(part(i), bitsOf[a])
		}
	}
	rest := make([]uint64, words)
	missed := func(i int) float64 {
		if ctx.Missed == nil || i >= len(ctx.Missed) {
			return 0
		}
		return float64(ctx.Missed[i])
	}

	var best []Candidate
	if k > 0 {
		best = make([]Candidate, 0, k)
	}
	for _, op := range ops {
		if allow != nil && !allow(op) {
			continue
		}
		var gain float64
		switch op.Kind {
		case MergeOp:
			// Each node in both trees sends one message instead of two:
			// the merge reduces capacity usage by C per overlap node.
			gain = ctx.PerMessage * float64(andCount(part(op.I), part(op.J)))
		case SplitOp:
			clear(rest)
			for _, a := range sets[op.I].Sorted() {
				if a != op.Attr {
					orInto(rest, bitsOf[a])
				}
			}
			overlap := float64(andCount(bitsOf[op.Attr], rest))
			gain = ctx.PerValue*missed(op.I) - ctx.PerMessage*overlap
		}
		c := Candidate{Op: op, Gain: gain}
		if k <= 0 {
			best = append(best, c)
			continue
		}
		// Keep best sorted by (gain desc, enumeration order): a later
		// candidate goes behind every earlier one of equal gain.
		if len(best) == k && !(gain > best[k-1].Gain) {
			continue
		}
		if len(best) < k {
			best = append(best, c)
		}
		j := len(best) - 1
		for ; j > 0 && best[j-1].Gain < gain; j-- {
			best[j] = best[j-1]
		}
		best[j] = c
	}
	if k <= 0 {
		slices.SortStableFunc(best, func(a, b Candidate) int { return cmp.Compare(b.Gain, a.Gain) })
	}
	return best
}

// orInto ORs src into dst; src may be shorter.
func orInto(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// andCount is the popcount of a AND b.
func andCount(a, b []uint64) int {
	c := 0
	for i := range min(len(a), len(b)) {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// Universe returns the union of all sets in the partition.
func Universe(sets []model.AttrSet) model.AttrSet {
	var u model.AttrSet
	for _, s := range sets {
		u = u.Union(s)
	}
	return u
}

// Validate checks that sets form a partition of universe: non-empty,
// pairwise disjoint, covering exactly the universe.
func Validate(sets []model.AttrSet, universe model.AttrSet) error {
	var union model.AttrSet
	total := 0
	for i, s := range sets {
		if s.Empty() {
			return fmt.Errorf("partition: set %d is empty", i)
		}
		total += s.Len()
		union = union.Union(s)
	}
	if total != union.Len() {
		return fmt.Errorf("partition: sets overlap (%d attrs in sets, %d distinct)", total, union.Len())
	}
	if !union.Equal(universe) {
		return fmt.Errorf("partition: union %v != universe %v", union, universe)
	}
	return nil
}
