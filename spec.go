package remo

import (
	"encoding/json"
	"fmt"
	"io"
)

// Spec is the JSON description of a planning problem, consumed by
// cmd/remo-plan and usable programmatically via LoadSpec/Build.
type Spec struct {
	// CentralCapacity is the collector's per-round budget.
	CentralCapacity float64 `json:"centralCapacity"`
	// PerMessage and PerValue are the cost model parameters C and a.
	PerMessage float64 `json:"perMessage"`
	PerValue   float64 `json:"perValue"`
	// Nodes are the monitoring nodes.
	Nodes []NodeSpec `json:"nodes"`
	// Tasks are the monitoring tasks.
	Tasks []TaskSpec `json:"tasks"`
	// CentralRegion is the region hosting the central collector
	// (default: the empty default region).
	CentralRegion string `json:"centralRegion,omitempty"`
	// InterRegionCost, when positive, applies WAN topology pricing:
	// edges between nodes with distinct Region labels cost this multiple
	// of the endpoint cost (intra-region edges stay at 1). Per-pair
	// overrides go through RegionLinks.
	InterRegionCost float64 `json:"interRegionCost,omitempty"`
	// RegionLinks overrides the inter-region multiplier for specific
	// region pairs (undirected).
	RegionLinks []RegionLinkSpec `json:"regionLinks,omitempty"`
}

// RegionLinkSpec prices one undirected inter-region link.
type RegionLinkSpec struct {
	A    string  `json:"a"`
	B    string  `json:"b"`
	Cost float64 `json:"cost"`
}

// NodeSpec declares one monitoring node.
type NodeSpec struct {
	ID       int     `json:"id"`
	Capacity float64 `json:"capacity"`
	// Attrs lists locally observable attribute ids; empty means "all
	// attributes referenced by tasks".
	Attrs []int `json:"attrs,omitempty"`
	// Region labels the node's WAN region for topology pricing and
	// region-scoped chaos (empty = default region).
	Region string `json:"region,omitempty"`
}

// TaskSpec declares one monitoring task.
type TaskSpec struct {
	Name  string `json:"name"`
	Attrs []int  `json:"attrs"`
	Nodes []int  `json:"nodes"`
	// Replicas > 1 requests SSDP reliable delivery with that many
	// copies.
	Replicas int `json:"replicas,omitempty"`
}

// LoadSpec decodes a JSON spec.
func LoadSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("remo: decode spec: %w", err)
	}
	return s, nil
}

// Build validates the spec and assembles a planner with its tasks
// registered.
func (s Spec) Build(opts ...PlannerOption) (*Planner, error) {
	// Nodes without explicit attribute lists observe every attribute any
	// task references.
	attrUniverse := make(map[AttrID]struct{})
	for _, t := range s.Tasks {
		for _, a := range t.Attrs {
			attrUniverse[AttrID(a)] = struct{}{}
		}
	}
	allAttrs := make([]AttrID, 0, len(attrUniverse))
	for a := range attrUniverse {
		allAttrs = append(allAttrs, a)
	}

	nodes := make([]Node, 0, len(s.Nodes))
	declared := make(map[int]bool, len(s.Nodes))
	for _, ns := range s.Nodes {
		declared[ns.ID] = true
		n := Node{ID: NodeID(ns.ID), Capacity: ns.Capacity, Region: ns.Region}
		if len(ns.Attrs) > 0 {
			for _, a := range ns.Attrs {
				n.Attrs = append(n.Attrs, AttrID(a))
			}
		} else {
			n.Attrs = append([]AttrID(nil), allAttrs...)
		}
		nodes = append(nodes, n)
	}

	sys, err := NewSystem(SystemSpec{
		CentralCapacity: s.CentralCapacity,
		Cost:            CostModel{PerMessage: s.PerMessage, PerValue: s.PerValue},
		Nodes:           nodes,
	})
	if err != nil {
		return nil, fmt.Errorf("remo: spec system: %w", err)
	}
	sys.CentralRegion = s.CentralRegion
	if s.InterRegionCost > 0 || len(s.RegionLinks) > 0 {
		topo := NewTopology(1, s.InterRegionCost)
		for _, l := range s.RegionLinks {
			topo.SetLink(l.A, l.B, l.Cost)
		}
		sys.ApplyTopology(topo)
	}

	p := NewPlanner(sys, opts...)
	for _, ts := range s.Tasks {
		t := Task{Name: ts.Name}
		for _, a := range ts.Attrs {
			t.Attrs = append(t.Attrs, AttrID(a))
		}
		for _, n := range ts.Nodes {
			if !declared[n] {
				return nil, fmt.Errorf("remo: spec task %q names node %d, which the spec does not declare", ts.Name, n)
			}
			t.Nodes = append(t.Nodes, NodeID(n))
		}
		if ts.Replicas > 1 {
			err = p.AddReliableTask(t, ts.Replicas)
		} else {
			err = p.AddTask(t)
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}
