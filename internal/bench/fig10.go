package bench

import (
	"time"

	"remo/internal/metrics"
	"remo/internal/model"
	"remo/internal/task"
	"remo/internal/tree"
	"remo/internal/workload"
)

// fig10Variants are the adjusting-procedure variants of Fig. 10; BASIC
// is the §3.2 algorithm (per-node reattaching, whole-tree search).
var fig10Variants = []struct {
	name string
	opts tree.Opts
}{
	{name: "BASIC", opts: tree.Opts{}},
	{name: "BRANCH", opts: tree.Opts{BranchReattach: true}},
	{name: "SUBTREE", opts: tree.Opts{SubtreeOnly: true}},
	{name: "BOTH", opts: tree.Opts{BranchReattach: true, SubtreeOnly: true}},
}

// Fig10 measures the speedup of the optimized tree-adjusting procedures
// (branch-based reattaching, subtree-only searching) over the basic
// algorithm while constructing one large, congested collection tree, and
// the coverage penalty the optimizations introduce (the paper reports up
// to ~11x speedup at <2% quality loss).
func Fig10(o Options) []*metrics.Table {
	speed := metrics.NewTable("Fig 10a — tree-construction speedup over BASIC", "nodes",
		"BRANCH", "SUBTREE", "BOTH")
	quality := metrics.NewTable("Fig 10b — % collected per variant", "nodes",
		"BASIC", "BRANCH", "SUBTREE", "BOTH")

	for _, n := range sweepInts(o, []int{50, 100, 200, 400}, 10) {
		ctx := fig10Context(o, n)
		times := make([]float64, len(fig10Variants))
		pcts := make([]float64, len(fig10Variants))
		for i, v := range fig10Variants {
			builder := tree.NewAdaptive(v.opts)
			// Repeat to stabilize the timing of small instances.
			const reps = 3
			start := time.Now()
			var r tree.Result
			for rep := 0; rep < reps; rep++ {
				r = builder.Build(ctx)
			}
			times[i] = float64(time.Since(start).Nanoseconds()) / reps
			pcts[i] = pct(r.Tree.Size(), len(ctx.Nodes))
		}
		mustAdd(speed, float64(n), times[0]/times[1], times[0]/times[2], times[0]/times[3])
		mustAdd(quality, float64(n), pcts...)
	}
	return []*metrics.Table{speed, quality}
}

// fig10Context builds a deliberately congested single-tree instance: all
// nodes carry several attributes and capacities are tight, so the
// construction procedure saturates repeatedly and the adjusting
// procedure dominates runtime.
func fig10Context(o Options, n int) tree.Context {
	sys, err := workload.System(workload.SystemConfig{
		Nodes:      n,
		Attrs:      5,
		CapacityLo: 60,
		CapacityHi: 90,
		// An ample collector keeps the bottleneck at the nodes.
		CentralCapacity: 1e9,
		Seed:            o.Seed + 100,
	})
	if err != nil {
		panic(err)
	}
	d := task.NewDemand()
	attrs := []model.AttrID{1, 2, 3, 4, 5}
	for _, id := range sys.NodeIDs() {
		for _, a := range attrs {
			d.Set(id, a, 1)
		}
	}
	set := model.NewAttrSet(attrs...)
	nodes := d.Participants(set)
	avail := make([]float64, len(nodes))
	for i, id := range nodes {
		avail[i] = sys.Capacity(id)
	}
	return tree.Context{
		Sys:          sys,
		Demand:       d,
		Attrs:        set,
		Nodes:        nodes,
		Avail:        avail,
		CentralAvail: sys.CentralCapacity,
	}
}
