package remo

import (
	"fmt"
	"io"
	"sort"

	"remo/internal/agg"
	"remo/internal/core"
	"remo/internal/plan"
	"remo/internal/task"
	"remo/internal/tree"
	"remo/internal/verify"
)

// Plan is a finished monitoring topology: a forest of collection trees
// plus its evaluated resource profile.
type Plan struct {
	sys    *System
	demand *task.Demand
	// planDemand is the demand the search packed against — equal to
	// demand unless prediction transmit rates discounted it. Validation
	// and verification run against it (it justified the packing); the
	// runtime installs demand, whose weights drive piggyback periods.
	planDemand *task.Demand
	aggSpec    *agg.Spec
	resolve    func(AttrID) AttrID
	// builder is the planner's tree builder, so Repair rebuilds trees the
	// way a live session's self-healing does.
	builder tree.Builder
	res     core.Result
}

// planFromForest wraps a forest built outside Plan (a session's, an
// imported one) in a Plan; b is the planner's tree builder.
func planFromForest(p *Planner, b tree.Builder, forest *plan.Forest, d *task.Demand) *Plan {
	return &Plan{
		sys:     p.sys,
		demand:  d,
		aggSpec: p.aggSpec,
		resolve: p.resolveAttr,
		builder: b,
		res: core.Result{
			Forest:    forest,
			Stats:     forest.ComputeStats(d, p.sys, p.aggSpec),
			Partition: forest.Partition(),
		},
	}
}

// TreeInfo summarizes one collection tree for display.
type TreeInfo struct {
	// Attrs are the attributes the tree delivers.
	Attrs []AttrID
	// Root is the tree's root (the collector's direct child).
	Root NodeID
	// Size is the number of member nodes.
	Size int
	// Height is the tree's maximum depth.
	Height int
}

// Trees describes the plan's collection trees, largest first.
func (p *Plan) Trees() []TreeInfo {
	out := make([]TreeInfo, 0, len(p.res.Forest.Trees))
	for _, t := range p.res.Forest.Trees {
		out = append(out, TreeInfo{
			Attrs:  t.Attrs.Attrs(),
			Root:   t.Root(),
			Size:   t.Size(),
			Height: t.Height(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return fmt.Sprint(out[i].Attrs) < fmt.Sprint(out[j].Attrs)
	})
	return out
}

// DemandedPairs is the number of distinct node-attribute pairs the task
// set requires.
func (p *Plan) DemandedPairs() int { return p.demand.PairCount() }

// CollectedPairs is the number of pairs the topology delivers to the
// collector.
func (p *Plan) CollectedPairs() int { return p.res.Stats.Collected }

// PercentCollected is the plan's coverage in percent.
func (p *Plan) PercentCollected() float64 {
	if p.demand.PairCount() == 0 {
		return 0
	}
	return 100 * float64(p.res.Stats.Collected) / float64(p.demand.PairCount())
}

// MissedPairs lists the demanded pairs the topology cannot deliver
// within the capacity constraints.
func (p *Plan) MissedPairs() []Pair { return p.res.Forest.MissedPairs(p.demand) }

// TotalCost is the plan's total capacity consumption per collection
// round.
func (p *Plan) TotalCost() float64 { return p.res.Stats.TotalCost }

// NodeUsage returns every placed node's capacity usage per round.
func (p *Plan) NodeUsage() map[NodeID]float64 {
	out := make(map[NodeID]float64, len(p.res.Stats.Usage))
	for n, u := range p.res.Stats.Usage {
		out[n] = u
	}
	return out
}

// CentralUsage is the collector's receive cost per round.
func (p *Plan) CentralUsage() float64 { return p.res.Stats.CentralUsage }

// ParentOf returns the parent of node n in the tree delivering attribute
// a (CentralNode for roots); ok is false when the pair is not collected.
func (p *Plan) ParentOf(n NodeID, a AttrID) (parent NodeID, ok bool) {
	t := p.res.Forest.TreeFor(a)
	if t == nil {
		return 0, false
	}
	return t.Parent(n)
}

// Validate re-checks the plan against the system and demand.
func (p *Plan) Validate() error {
	return p.res.Forest.Validate(p.packedDemand(), p.sys, p.aggSpec)
}

// packedDemand is the demand the plan's packing was justified under.
func (p *Plan) packedDemand() *task.Demand {
	if p.planDemand != nil {
		return p.planDemand
	}
	return p.demand
}

// Verify runs the independent verification harness over the plan:
// structural validity (a forest of well-formed trees partitioning the
// demanded attributes), ownership (nodes only carry attributes they
// observe), capacity feasibility under the C + a·x cost model, and a
// from-scratch recount of the plan's claimed statistics. Unlike
// Validate, none of the checks reuse the planner's own accounting.
func (p *Plan) Verify() error {
	return verify.Claims(p.verifyContext(), p.res.Forest, p.res.Stats)
}

// verifyContext assembles the plan's verification inputs.
func (p *Plan) verifyContext() verify.Context {
	return verify.Context{
		Sys:     p.sys,
		Demand:  p.packedDemand(),
		Spec:    p.aggSpec,
		Resolve: p.resolve,
	}
}

// Describe writes a human-readable summary of the plan.
func (p *Plan) Describe(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"plan: %d trees, %d/%d pairs collected (%.1f%%), total cost %.1f/round, collector load %.1f/%.1f\n",
		len(p.res.Forest.Trees), p.CollectedPairs(), p.DemandedPairs(),
		p.PercentCollected(), p.TotalCost(), p.CentralUsage(), p.sys.CentralCapacity,
	); err != nil {
		return err
	}
	for i, info := range p.Trees() {
		if _, err := fmt.Fprintf(w, "  tree %d: %d nodes, height %d, root %v, attrs %v\n",
			i, info.Size, info.Height, info.Root, attrsPreview(info.Attrs)); err != nil {
			return err
		}
	}
	return nil
}

// attrsPreview keeps tree summaries short for wide attribute sets.
func attrsPreview(attrs []AttrID) string {
	const maxShown = 8
	if len(attrs) <= maxShown {
		return fmt.Sprint(attrs)
	}
	return fmt.Sprintf("%v… (%d attrs)", attrs[:maxShown], len(attrs))
}
