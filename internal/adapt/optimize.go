package adapt

import (
	"sort"

	"remo/internal/model"
	"remo/internal/partition"
	"remo/internal/plan"
	"remo/internal/task"
	"remo/internal/tree"
)

// directApply computes the D-A base topology for a new demand: the
// partition keeps its shape (removed attributes drop out of their sets,
// brand-new attributes join as singleton sets) and only trees delivering
// affected attributes are reconstructed. It returns the base forest, the
// updated partition, and the keys of the reconstructed trees.
func (a *Adaptor) directApply(newDemand *task.Demand) (*plan.Forest, []model.AttrSet, map[string]struct{}) {
	change := task.Diff(a.demand, newDemand)
	universe := newDemand.Universe()

	// Re-shape the partition.
	var sets []model.AttrSet
	covered := model.AttrSet{}
	for _, s := range a.partition {
		kept := s.Intersect(universe)
		if !kept.Empty() {
			sets = append(sets, kept)
			covered = covered.Union(kept)
		}
	}
	for _, attr := range universe.Attrs() {
		if !covered.Contains(attr) {
			sets = append(sets, model.NewAttrSet(attr))
		}
	}

	// Decide which trees need reconstruction.
	rebuilt := make(map[string]struct{})
	var changedIdx []int
	existing := make(map[string]*plan.Tree, len(a.forest.Trees))
	for _, t := range a.forest.Trees {
		existing[t.Attrs.Key()] = t
	}
	for i, s := range sets {
		_, hasTree := existing[s.Key()]
		if !hasTree || s.IntersectsAny(change.AffectedAttrs) {
			changedIdx = append(changedIdx, i)
			rebuilt[s.Key()] = struct{}{}
		}
	}

	forest := a.rebuildSubset(newDemand, sets, existing, changedIdx)
	return forest, sets, rebuilt
}

// rebuildSubset constructs the trees of sets[changedIdx...] while keeping
// every other set's existing tree (looked up by key in existing) fixed,
// charging the fixed trees' usage before allocating capacity to the
// rebuilt ones. Rebuilt trees are constructed smallest-first (ORDERED
// allocation semantics).
func (a *Adaptor) rebuildSubset(d *task.Demand, sets []model.AttrSet, existing map[string]*plan.Tree, changedIdx []int) *plan.Forest {
	changed := make(map[int]struct{}, len(changedIdx))
	for _, i := range changedIdx {
		changed[i] = struct{}{}
	}

	// Fixed-tree usage is charged up front.
	used := make(map[model.NodeID]float64)
	var centralUsed float64
	fixedTrees := make(map[int]*plan.Tree, len(sets))
	for i, s := range sets {
		if _, isChanged := changed[i]; isChanged {
			continue
		}
		t := existing[s.Key()]
		if t == nil {
			t = plan.NewTree(s)
		}
		fixedTrees[i] = t
		st := plan.ComputeTreeStats(t, d, a.sys, a.planner.Spec())
		for n, u := range st.Usage {
			used[n] += u
		}
		centralUsed += st.RootSend
	}

	// Build changed trees smallest-first.
	order := append([]int(nil), changedIdx...)
	sort.SliceStable(order, func(x, y int) bool {
		return len(d.Participants(sets[order[x]])) < len(d.Participants(sets[order[y]]))
	})

	built := make(map[int]*plan.Tree, len(order))
	for _, i := range order {
		participants := d.Participants(sets[i])
		avail := make([]float64, len(participants))
		for j, n := range participants {
			avail[j] = max(a.sys.Capacity(n)-used[n], 0)
		}
		centralAvail := a.sys.CentralCapacity - centralUsed
		if centralAvail < 0 {
			centralAvail = 0
		}
		r := a.planner.Builder().Build(tree.Context{
			Sys:          a.sys,
			Demand:       d,
			Spec:         a.planner.Spec(),
			Attrs:        sets[i],
			Nodes:        participants,
			Avail:        avail,
			CentralAvail: centralAvail,
		})
		built[i] = r.Tree
		for j, u := range r.Used {
			used[r.Nodes[j]] += u
		}
		centralUsed += r.CentralUsed
	}

	forest := plan.NewForest()
	for i := range sets {
		var t *plan.Tree
		if ft, ok := fixedTrees[i]; ok {
			t = ft
		} else {
			t = built[i]
		}
		if t != nil && !t.Empty() {
			forest.Add(t)
		}
	}
	return forest
}

// searchOp is a ranked candidate operation for the adaptation search.
type searchOp struct {
	op partition.Op
	// effectiveness is estimated gain divided by estimated adaptation
	// cost; candidates are evaluated in decreasing order.
	effectiveness float64
}

// optimize runs the bounded merge/split search of §4.1 over the D-A base
// topology. Only operations involving at least one reconstructed tree
// (keys in rebuilt) are considered; the trees each adopted operation
// builds join rebuilt. With throttle set, each operation must
// additionally pass the cost-benefit threshold of §4.2, judged at the
// epoch the search's result will be committed in.
func (a *Adaptor) optimize(
	d *task.Demand,
	forest *plan.Forest,
	sets []model.AttrSet,
	rebuilt map[string]struct{},
	throttle bool,
) (*plan.Forest, []model.AttrSet, int) {
	spec := a.planner.Spec()
	curStats := forest.ComputeStats(d, a.sys, spec)
	ops := 0
	// adjusted holds the trees adopted operations built: to the throttle
	// they were adjusted this epoch, though Commit stamps them only once
	// the search's result is in force.
	adjusted := make(map[string]struct{})

	for ops < a.maxOps {
		cands := a.rankOps(d, sets, forest, rebuilt)

		bestForest, bestSets := forest, sets
		bestStats := curStats
		var bestKeys []string
		found := false

		// Evaluate merges until the first valid one, then splits until
		// the first valid one, and keep the better of the two (§4.1).
		// Candidates are ranked by estimated cost effectiveness, so a
		// small per-kind evaluation budget keeps adaptation responsive.
		const evalBudgetPerKind = 8
		for _, kind := range []partition.OpKind{partition.MergeOp, partition.SplitOp} {
			evals := 0
			for _, c := range cands {
				if c.op.Kind != kind {
					continue
				}
				if evals >= evalBudgetPerKind {
					break
				}
				evals++
				newSets, newForest, newStats, keys := a.evaluateOp(d, sets, forest, c.op)
				if !newStats.Score().Better(bestStats.Score()) {
					continue
				}
				if throttle && !a.passThrottle(curStats, newStats, forest, newForest, opSourceKeys(sets, c.op), adjusted) {
					// Not cost effective: terminate the search for this
					// kind immediately (§4.2).
					break
				}
				bestForest, bestSets, bestStats, bestKeys = newForest, newSets, newStats, keys
				found = true
				break
			}
		}

		if !found {
			break
		}
		forest, sets, curStats = bestForest, bestSets, bestStats
		for _, k := range bestKeys {
			rebuilt[k] = struct{}{}
			adjusted[k] = struct{}{}
		}
		ops++
	}
	return forest, sets, ops
}

// rankOps lists candidate operations involving the rebuilt trees, ranked
// by estimated cost effectiveness.
func (a *Adaptor) rankOps(
	d *task.Demand,
	sets []model.AttrSet,
	forest *plan.Forest,
	rebuilt map[string]struct{},
) []searchOp {
	missed := make([]int, len(sets))
	for i, s := range sets {
		collected := 0
		for _, t := range forest.Trees {
			if t.Attrs.Equal(s) {
				for _, n := range t.Members() {
					collected += d.LocalCount(n, s)
				}
				break
			}
		}
		missed[i] = d.PairCountIn(s) - collected
	}
	gains := partition.Rank(sets, partition.GainContext{
		Demand:     d,
		PerMessage: a.sys.Cost.PerMessage,
		PerValue:   a.sys.Cost.PerValue,
		Missed:     missed,
	})

	inRebuilt := func(i int) bool {
		_, ok := rebuilt[sets[i].Key()]
		return ok
	}
	var cands []searchOp
	cons := a.planner.Constraints()
	for _, g := range gains {
		if !cons.AllowOp(sets, g.Op) {
			continue
		}
		switch g.Op.Kind {
		case partition.MergeOp:
			if !inRebuilt(g.Op.I) && !inRebuilt(g.Op.J) {
				continue
			}
		case partition.SplitOp:
			if !inRebuilt(g.Op.I) {
				continue
			}
		}
		cands = append(cands, searchOp{
			op:            g.Op,
			effectiveness: g.Gain / (1 + a.estimateAdaptCost(d, sets, g.Op)),
		})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].effectiveness > cands[j].effectiveness
	})
	return cands
}

// estimateAdaptCost lower-bounds the number of edges an operation
// rewires: a merge rewires at least the smaller tree, a split at least
// the nodes moved to the new singleton tree.
func (a *Adaptor) estimateAdaptCost(d *task.Demand, sets []model.AttrSet, op partition.Op) float64 {
	switch op.Kind {
	case partition.MergeOp:
		ni := len(d.Participants(sets[op.I]))
		nj := len(d.Participants(sets[op.J]))
		if ni < nj {
			return float64(ni)
		}
		return float64(nj)
	case partition.SplitOp:
		return float64(len(d.Participants(model.NewAttrSet(op.Attr))))
	}
	return 0
}

// evaluateOp applies op to the partition and rebuilds only the affected
// trees, keeping all others fixed. It returns the resulting partition,
// forest, stats and the keys of the trees it rebuilt.
func (a *Adaptor) evaluateOp(
	d *task.Demand,
	sets []model.AttrSet,
	forest *plan.Forest,
	op partition.Op,
) ([]model.AttrSet, *plan.Forest, plan.Stats, []string) {
	newSets := partition.Apply(sets, op)

	existing := make(map[string]*plan.Tree, len(forest.Trees))
	for _, t := range forest.Trees {
		existing[t.Attrs.Key()] = t
	}
	var changedIdx []int
	var keys []string
	for i, s := range newSets {
		if _, ok := existing[s.Key()]; !ok {
			changedIdx = append(changedIdx, i)
			keys = append(keys, s.Key())
		}
	}
	newForest := a.rebuildSubset(d, newSets, existing, changedIdx)
	return newSets, newForest, newForest.ComputeStats(d, a.sys, a.planner.Spec()), keys
}

// opSourceKeys returns the keys of the existing trees an operation
// touches (the merge's two inputs, or the split tree), whose adjustment
// history feeds the throttle.
func opSourceKeys(sets []model.AttrSet, op partition.Op) []string {
	switch op.Kind {
	case partition.MergeOp:
		return []string{sets[op.I].Key(), sets[op.J].Key()}
	case partition.SplitOp:
		return []string{sets[op.I].Key()}
	}
	return nil
}

// passThrottle implements the cost-benefit throttle: the adaptation's
// control-message cost M_adapt must stay below
//
//	Threshold(A_m) = (T_cur − min{T_adj,i}) · (C_cur − C_adj)
//
// where the first factor is how long the operation's trees have been
// stable (in adaptation epochs; T_cur is the epoch being planned, and a
// tree in adjusted was built earlier in this very search) and the second
// is the per-round benefit.
// The benefit combines the monitoring cost the operation saves with the
// value of any additional coverage (priced at the topology's average
// per-pair delivery cost), so coverage-improving operations are favored
// but still suppressed on trees that churn every epoch.
func (a *Adaptor) passThrottle(
	curStats, newStats plan.Stats,
	curForest, newForest *plan.Forest,
	keys []string,
	adjusted map[string]struct{},
) bool {
	adaptMsgs := float64(plan.DiffEdges(curForest, newForest))
	mAdapt := adaptMsgs * a.sys.Cost.PerMessage

	epoch := a.epoch + 1
	minAdj := epoch
	for _, k := range keys {
		if _, now := adjusted[k]; now {
			continue
		}
		if at, ok := a.lastAdjusted[k]; ok && at < minAdj {
			minAdj = at
		}
	}
	// Trees adjusted this very epoch (or brand new) have zero stability.
	stability := float64(epoch - minAdj)

	benefit := curStats.TotalCost - newStats.TotalCost
	if gained := newStats.Collected - curStats.Collected; gained > 0 && curStats.Collected > 0 {
		perPair := curStats.TotalCost / float64(curStats.Collected)
		benefit += float64(gained) * perPair
	}
	if benefit <= 0 {
		return false
	}
	return mAdapt < stability*benefit
}
