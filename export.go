package remo

import (
	"encoding/json"
	"fmt"
	"io"

	"remo/internal/model"
	"remo/internal/plan"
)

// PlanDoc is the JSON representation of a planned topology, exportable
// with Plan.Export and reloadable with Planner.ImportPlan — for example
// to hand a topology from a planning service to the agents actually
// wiring the overlay, or to persist a known-good plan.
type PlanDoc struct {
	Trees []TreeDoc `json:"trees"`
}

// TreeDoc serializes one collection tree.
type TreeDoc struct {
	// Attrs is the attribute set the tree delivers.
	Attrs []int `json:"attrs"`
	// Edges lists parent links in an order where every parent appears
	// before its children (the root's parent is 0, the collector).
	Edges []EdgeDoc `json:"edges"`
}

// EdgeDoc is one parent link.
type EdgeDoc struct {
	Child  int `json:"child"`
	Parent int `json:"parent"`
}

// Export writes the plan's topology as JSON.
func (p *Plan) Export(w io.Writer) error {
	doc := PlanDoc{Trees: make([]TreeDoc, 0, len(p.res.Forest.Trees))}
	for _, t := range p.res.Forest.Trees {
		td := TreeDoc{}
		for _, a := range t.Attrs.Attrs() {
			td.Attrs = append(td.Attrs, int(a))
		}
		// Members() is BFS from the root: parents precede children.
		for _, n := range t.Members() {
			parent, _ := t.Parent(n)
			td.Edges = append(td.Edges, EdgeDoc{Child: int(n), Parent: int(parent)})
		}
		doc.Trees = append(doc.Trees, td)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ImportPlan reconstructs a previously exported topology over the
// planner's current system and task set, validating it (capacities,
// partition disjointness, membership) before returning it. Importing a
// plan whose topology no longer fits the current demand or capacities
// fails rather than silently overloading nodes.
func (p *Planner) ImportPlan(r io.Reader) (*Plan, error) {
	var doc PlanDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("remo: decode plan: %w", err)
	}

	forest := plan.NewForest()
	for i, td := range doc.Trees {
		attrs := make([]AttrID, 0, len(td.Attrs))
		for _, a := range td.Attrs {
			attrs = append(attrs, AttrID(a))
		}
		t := plan.NewTree(model.NewAttrSet(attrs...))
		for _, e := range td.Edges {
			if err := t.AddNode(NodeID(e.Child), NodeID(e.Parent)); err != nil {
				return nil, fmt.Errorf("remo: tree %d edge %d->%d: %w", i, e.Child, e.Parent, err)
			}
		}
		forest.Add(t)
	}

	imported := planFromForest(p, p.corePlanner().Builder(), forest, p.currentDemand())
	if err := imported.Validate(); err != nil {
		return nil, fmt.Errorf("remo: imported plan invalid: %w", err)
	}
	return imported, nil
}
