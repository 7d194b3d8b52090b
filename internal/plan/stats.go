package plan

import (
	"remo/internal/agg"
	"remo/internal/model"
	"remo/internal/task"
)

// TreeStats holds the per-node resource profile of one tree under the
// cost model: for every member i, the weighted outgoing value count y_i,
// the update message cost u_i = C + a·y_i, and the total usage
// u_i + Σ_{children j} u_j.
type TreeStats struct {
	// Out is y_i: the weighted number of attribute values node i forwards
	// to its parent (after any in-network aggregation funnels).
	Out map[model.NodeID]float64
	// Send is node i's sending cost: the endpoint message cost
	// C + a·y_i scaled by the system's distance factor to its parent
	// (factor 1 under the datacenter assumption).
	Send map[model.NodeID]float64
	// Usage is node i's total resource consumption in this tree: sending
	// its own message plus receiving its children's messages (receive
	// cost is the unscaled endpoint cost).
	Usage map[model.NodeID]float64
	// RootSend is the root message's endpoint cost, paid as receive cost
	// by the central collector.
	RootSend float64
	// LocalPairs is the number of node-attribute pairs the tree collects
	// (every member's demanded attributes within the tree's set).
	LocalPairs int
}

// ComputeTreeStats derives the resource profile of tree t for demand d
// under the system's cost model. spec provides in-network aggregation
// funnels; a nil spec means holistic collection.
func ComputeTreeStats(t *Tree, d *task.Demand, sys *model.System, spec *agg.Spec) TreeStats {
	st := TreeStats{
		Out:   make(map[model.NodeID]float64, t.Size()),
		Send:  make(map[model.NodeID]float64, t.Size()),
		Usage: make(map[model.NodeID]float64, t.Size()),
	}
	if t.Empty() {
		return st
	}

	attrs := t.Attrs.Sorted()
	// in[n] accumulates node n's weighted incoming count per attribute
	// of the tree, rows carved from one backing array.
	in := make(map[model.NodeID][]float64, t.Size())
	rows := make([]float64, (t.Size()+1)*len(attrs))
	row := func() []float64 {
		r := rows[:len(attrs):len(attrs)]
		rows = rows[len(attrs):]
		return r
	}
	out := row()

	for _, n := range t.PostOrder() {
		counts := in[n]
		if counts == nil {
			counts = row()
		}
		// Add locally demanded values.
		d.VisitLocal(n, t.Attrs, func(k int, w float64) {
			counts[k] += w
			st.LocalPairs++
		})
		// Apply funnels to obtain outgoing counts.
		var y float64
		for k, a := range attrs {
			out[k] = spec.Out(a, counts[k])
			y += out[k]
		}
		st.Out[n] = y
		endpoint := sys.Cost.PerMessage + sys.Cost.PerValue*y
		p, _ := t.Parent(n)
		send := endpoint * sys.Dist(n, p)
		st.Send[n] = send
		st.Usage[n] += send

		// Credit the parent: receive cost now, payload forwarded later.
		if p.IsCentral() {
			st.RootSend = endpoint
			continue
		}
		st.Usage[p] += endpoint
		pc := in[p]
		if pc == nil {
			pc = row()
			in[p] = pc
		}
		for k := range out {
			pc[k] += out[k]
		}
	}
	return st
}

// TotalUsage returns the sum of usage over all members plus the root-send
// cost charged to the central node — the tree's total capacity
// consumption.
func (st TreeStats) TotalUsage() float64 {
	var sum float64
	for _, u := range st.Usage {
		sum += u
	}
	return sum + st.RootSend
}
