package verify

import (
	"errors"
	"fmt"

	"remo/internal/core"
	"remo/internal/model"
	"remo/internal/task"
)

// MaxBruteAttrs bounds the universe size Optimum will enumerate. Set
// partitions grow as Bell numbers (B(6)=203, B(8)=4140, B(10)=115975);
// past eight attributes exhaustive evaluation stops being a test and
// starts being a benchmark.
const MaxBruteAttrs = 8

// ErrTooLarge is returned by Optimum when the demanded attribute
// universe exceeds MaxBruteAttrs.
var ErrTooLarge = errors.New("verify: universe too large to enumerate")

// Optimum exhaustively evaluates every attribute-set partition of the
// demand's universe with the planner's own per-partition procedure
// (capacity allocation + tree construction + stats) and returns the
// best result under the planner's plan-comparison order (collected
// pairs first, total cost as tie-break), together with the number of
// partitions enumerated.
//
// Because the guided search explores a subset of the same partition
// space using the same evaluation, Optimum is a true upper bound for
// it: a guided plan collecting fewer pairs than Optimum's proves the
// search missed reachable coverage.
func Optimum(p *core.Planner, sys *model.System, d *task.Demand) (core.Result, int, error) {
	universe := d.Universe().Attrs()
	if len(universe) > MaxBruteAttrs {
		return core.Result{}, 0, fmt.Errorf("%w: %d attributes (max %d)",
			ErrTooLarge, len(universe), MaxBruteAttrs)
	}
	var (
		best  core.Result
		found bool
		count int
	)
	forEachPartition(universe, func(blocks [][]model.AttrID) {
		count++
		sets := make([]model.AttrSet, len(blocks))
		for i, b := range blocks {
			sets[i] = model.NewAttrSet(b...)
		}
		res := p.PlanPartition(sys, d, sets)
		if !found || res.Stats.Score().Better(best.Stats.Score()) {
			best = res
			found = true
		}
	})
	if !found {
		// Empty universe: the one (empty) partition yields the empty plan.
		best = p.PlanPartition(sys, d, nil)
		count = 1
	}
	return best, count, nil
}

// forEachPartition enumerates every set partition of attrs by placing
// each attribute either into one of the existing blocks or into a new
// block of its own — the standard restricted-growth enumeration, one
// callback per complete partition.
func forEachPartition(attrs []model.AttrID, yield func(blocks [][]model.AttrID)) {
	if len(attrs) == 0 {
		return
	}
	blocks := make([][]model.AttrID, 0, len(attrs))
	var place func(i int)
	place = func(i int) {
		if i == len(attrs) {
			yield(blocks)
			return
		}
		a := attrs[i]
		for b := range blocks {
			blocks[b] = append(blocks[b], a)
			place(i + 1)
			blocks[b] = blocks[b][:len(blocks[b])-1]
		}
		blocks = append(blocks, []model.AttrID{a})
		place(i + 1)
		blocks = blocks[:len(blocks)-1]
	}
	place(0)
}
