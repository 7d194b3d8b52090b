package remo

import (
	"fmt"

	"remo/internal/model"
	"remo/internal/repair"
)

// RepairReport summarizes a topology repair after node failures.
type RepairReport struct {
	// FailedMembers is how many placed nodes were lost.
	FailedMembers int
	// TreesRebuilt is how many collection trees were reconstructed.
	TreesRebuilt int
	// PairsLost counts pairs observable only at failed nodes.
	PairsLost int
	// EdgesChanged is the overlay reconfiguration cost in messages.
	EdgesChanged int
}

// Repair reconstructs the plan after the given nodes fail: affected
// trees are rebuilt over the survivors with the planner's tree builder,
// as a live session repairs them, and unaffected trees stay in place.
// The receiver is unchanged; the repaired topology is returned as a new
// Plan (pairs observed only at failed nodes are gone for good).
func (p *Plan) Repair(failed []NodeID) (*Plan, RepairReport, error) {
	dead := make(map[model.NodeID]struct{}, len(failed))
	for _, n := range failed {
		dead[n] = struct{}{}
	}
	newForest, rep := repair.Repair(repair.Config{
		Sys:     p.sys,
		Demand:  p.demand,
		Spec:    p.aggSpec,
		Builder: p.builder,
	}, p.res.Forest, dead)

	// The repaired plan's demand excludes the failed nodes' pairs.
	d, _ := repair.Prune(p.demand, dead)
	sys, err := survivorSystem(p.sys, dead)
	if err != nil {
		return nil, RepairReport{}, fmt.Errorf("remo: survivor system: %w", err)
	}
	repaired := &Plan{
		sys:     sys,
		demand:  d,
		aggSpec: p.aggSpec,
		resolve: p.resolve,
		builder: p.builder,
		res:     p.res,
	}
	repaired.res.Forest = newForest
	repaired.res.Stats = newForest.ComputeStats(d, repaired.sys, p.aggSpec)
	repaired.res.Partition = newForest.Partition()
	if err := repaired.Validate(); err != nil {
		return nil, RepairReport{}, fmt.Errorf("remo: repaired topology invalid: %w", err)
	}
	return repaired, RepairReport{
		FailedMembers: rep.FailedMembers,
		TreesRebuilt:  rep.TreesRebuilt,
		PairsLost:     rep.PairsLost,
		EdgesChanged:  rep.EdgesChanged,
	}, nil
}

// survivorSystem removes failed nodes from the system description.
func survivorSystem(sys *System, dead map[model.NodeID]struct{}) (*System, error) {
	if len(dead) == 0 {
		return sys, nil
	}
	survivors := make([]Node, 0, len(sys.Nodes))
	for _, n := range sys.Nodes {
		if _, gone := dead[n.ID]; !gone {
			survivors = append(survivors, n.Clone())
		}
	}
	return model.NewSystem(sys.CentralCapacity, sys.Cost, survivors)
}
