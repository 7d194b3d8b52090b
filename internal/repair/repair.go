// Package repair implements the management core's failure handling
// (§2.2): when monitoring nodes fail, the affected collection trees are
// reconstructed over the surviving members so monitoring data keeps
// flowing, without disturbing unaffected trees.
package repair

import (
	"sort"

	"remo/internal/agg"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
	"remo/internal/tree"
)

// Report summarizes a repair.
type Report struct {
	// FailedMembers is how many placed nodes were lost.
	FailedMembers int
	// TreesRebuilt is how many trees contained failed members.
	TreesRebuilt int
	// PairsLost counts pairs observable only at failed nodes (no repair
	// can recover them).
	PairsLost int
	// EdgesChanged is the overlay reconfiguration cost.
	EdgesChanged int
}

// Config carries the planning context for repairs.
type Config struct {
	Sys     *model.System
	Demand  *task.Demand
	Spec    *agg.Spec
	Builder tree.Builder
}

// Repair rebuilds the trees that contain failed nodes, excluding the
// failed nodes, while keeping every unaffected tree (and its capacity
// consumption) fixed. The input forest is not modified.
func Repair(cfg Config, forest *plan.Forest, failed map[model.NodeID]struct{}) (*plan.Forest, Report) {
	if cfg.Builder == nil {
		cfg.Builder = tree.New(tree.Adaptive)
	}
	var rep Report

	// Partition trees into affected and fixed.
	var fixed, affected []*plan.Tree
	for _, t := range forest.Trees {
		hit := false
		for _, n := range t.Members() {
			if _, dead := failed[n]; dead {
				hit = true
				rep.FailedMembers++
			}
		}
		if hit {
			affected = append(affected, t)
		} else {
			fixed = append(fixed, t)
		}
	}
	rep.TreesRebuilt = len(affected)

	// The demand seen by repairs: failed nodes observe nothing anymore.
	d, lost := Prune(cfg.Demand, failed)
	rep.PairsLost = lost

	// Charge fixed trees' usage before allocating to rebuilt ones.
	used := make(map[model.NodeID]float64)
	var centralUsed float64
	out := plan.NewForest()
	for _, t := range fixed {
		st := plan.ComputeTreeStats(t, d, cfg.Sys, cfg.Spec)
		for n, u := range st.Usage {
			used[n] += u
		}
		centralUsed += st.RootSend
		out.Add(t)
	}

	// Rebuild affected trees smallest-first over survivors.
	sort.Slice(affected, func(i, j int) bool {
		return len(d.Participants(affected[i].Attrs)) < len(d.Participants(affected[j].Attrs))
	})
	for _, t := range affected {
		participants := d.Participants(t.Attrs)
		avail := make([]float64, len(participants))
		for i, n := range participants {
			avail[i] = max(cfg.Sys.Capacity(n)-used[n], 0)
		}
		centralAvail := cfg.Sys.CentralCapacity - centralUsed
		if centralAvail < 0 {
			centralAvail = 0
		}
		r := cfg.Builder.Build(tree.Context{
			Sys:          cfg.Sys,
			Demand:       d,
			Spec:         cfg.Spec,
			Attrs:        t.Attrs,
			Nodes:        participants,
			Avail:        avail,
			CentralAvail: centralAvail,
		})
		for i, u := range r.Used {
			used[r.Nodes[i]] += u
		}
		centralUsed += r.CentralUsed
		if !r.Tree.Empty() {
			out.Add(r.Tree)
		}
	}

	rep.EdgesChanged = plan.DiffEdges(forest, out)
	return out, rep
}

// Prune returns a clone of the demand with every pair observed at a
// failed node removed, plus how many pairs were lost. The input demand
// is not modified.
func Prune(d *task.Demand, failed map[model.NodeID]struct{}) (*task.Demand, int) {
	out := d.Clone()
	lost := 0
	for n := range failed {
		for _, a := range out.AttrsOf(n).Attrs() {
			out.Remove(n, a)
			lost++
		}
	}
	return out, lost
}
