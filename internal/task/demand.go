package task

import (
	"cmp"
	"slices"

	"remo/internal/model"
)

// Demand is the deduplicated monitoring workload: for every node, the set
// of attributes it must report, each with a weight. A weight of 1 is one
// full-rate value per collection round; the heterogeneous-update-frequency
// extension lowers weights of values that piggyback at a fraction of the
// node's fastest rate (a value updated at half the maximum frequency
// contributes 0.5 to message payload cost on average).
//
// Each node's demand is one slice sorted by attribute, so every query
// restricted to an attribute set is a merge of two sorted slices, and
// every sum runs in attribute order: the same float on every call.
type Demand struct {
	perNode map[model.NodeID][]entry
}

// entry is one demanded attribute of a node with its weight.
type entry struct {
	attr   model.AttrID
	weight float64
}

// NewDemand returns an empty demand.
func NewDemand() *Demand {
	return &Demand{perNode: make(map[model.NodeID][]entry)}
}

// find returns the position of attribute a in node n's entries and
// whether it is there.
func (d *Demand) find(n model.NodeID, a model.AttrID) ([]entry, int, bool) {
	es := d.perNode[n]
	i, ok := slices.BinarySearchFunc(es, a, func(e entry, a model.AttrID) int { return cmp.Compare(e.attr, a) })
	return es, i, ok
}

// Set records that node n must report attribute a with the given weight,
// replacing any previous weight.
func (d *Demand) Set(n model.NodeID, a model.AttrID, weight float64) {
	es, i, ok := d.find(n, a)
	if ok {
		es[i].weight = weight
		return
	}
	d.perNode[n] = slices.Insert(es, i, entry{attr: a, weight: weight})
}

// Remove drops the pair (n, a).
func (d *Demand) Remove(n model.NodeID, a model.AttrID) {
	es, i, ok := d.find(n, a)
	if !ok {
		return
	}
	if len(es) == 1 {
		delete(d.perNode, n)
		return
	}
	d.perNode[n] = slices.Delete(es, i, i+1)
}

// Weight returns the weight of pair (n, a), or 0 if the pair is not
// demanded.
func (d *Demand) Weight(n model.NodeID, a model.AttrID) float64 {
	if es, i, ok := d.find(n, a); ok {
		return es[i].weight
	}
	return 0
}

// Has reports whether pair (n, a) is demanded.
func (d *Demand) Has(n model.NodeID, a model.AttrID) bool {
	_, _, ok := d.find(n, a)
	return ok
}

// Nodes returns the ids of all nodes with at least one demanded
// attribute, ascending.
func (d *Demand) Nodes() []model.NodeID {
	ids := make([]model.NodeID, 0, len(d.perNode))
	for n := range d.perNode {
		ids = append(ids, n)
	}
	model.SortNodes(ids)
	return ids
}

// AttrsOf returns the attributes demanded at node n as a set.
func (d *Demand) AttrsOf(n model.NodeID) model.AttrSet {
	es := d.perNode[n]
	attrs := make([]model.AttrID, len(es))
	for i, e := range es {
		attrs[i] = e.attr
	}
	return model.NewAttrSet(attrs...)
}

// Universe returns the union of demanded attributes across all nodes —
// the set the partition planner partitions.
func (d *Demand) Universe() model.AttrSet {
	var attrs []model.AttrID
	for _, es := range d.perNode {
		for _, e := range es {
			attrs = append(attrs, e.attr)
		}
	}
	return model.NewAttrSet(attrs...)
}

// VisitLocal calls fn for every attribute of set demanded at node n, in
// ascending order, with the attribute's index in set.Sorted() and its
// weight.
func (d *Demand) VisitLocal(n model.NodeID, set model.AttrSet, fn func(k int, w float64)) {
	es, attrs := d.perNode[n], set.Sorted()
	for i, k := 0, 0; i < len(es) && k < len(attrs); {
		switch {
		case es[i].attr < attrs[k]:
			i++
		case es[i].attr > attrs[k]:
			k++
		default:
			fn(k, es[i].weight)
			i++
			k++
		}
	}
}

// LocalCount returns how many attributes of set node n demands.
func (d *Demand) LocalCount(n model.NodeID, set model.AttrSet) int {
	c := 0
	d.VisitLocal(n, set, func(int, float64) { c++ })
	return c
}

// Participants returns the nodes demanding at least one attribute of set,
// ascending — the node set D_k of the monitoring tree for set.
func (d *Demand) Participants(set model.AttrSet) []model.NodeID {
	var ids []model.NodeID
	attrs := set.Sorted()
	for n, es := range d.perNode {
		for i, k := 0, 0; i < len(es) && k < len(attrs); {
			if es[i].attr == attrs[k] {
				ids = append(ids, n)
				break
			}
			if es[i].attr < attrs[k] {
				i++
			} else {
				k++
			}
		}
	}
	model.SortNodes(ids)
	return ids
}

// LocalAttrs returns the attributes of set demanded at node n, ascending.
func (d *Demand) LocalAttrs(n model.NodeID, set model.AttrSet) []model.AttrID {
	var attrs []model.AttrID
	all := set.Sorted()
	d.VisitLocal(n, set, func(k int, _ float64) { attrs = append(attrs, all[k]) })
	return attrs
}

// LocalWeight returns the summed weight of node n's demanded attributes
// restricted to set — x_i of the tree construction problem — summed in
// attribute order.
func (d *Demand) LocalWeight(n model.NodeID, set model.AttrSet) float64 {
	var sum float64
	d.VisitLocal(n, set, func(_ int, w float64) { sum += w })
	return sum
}

// PairCount returns the number of distinct demanded pairs.
func (d *Demand) PairCount() int {
	var c int
	for _, es := range d.perNode {
		c += len(es)
	}
	return c
}

// PairCountIn returns the number of distinct demanded pairs whose
// attribute is in set.
func (d *Demand) PairCountIn(set model.AttrSet) int {
	var c int
	for n := range d.perNode {
		c += d.LocalCount(n, set)
	}
	return c
}

// Pairs returns all demanded pairs ordered by node then attribute.
func (d *Demand) Pairs() []model.Pair {
	pairs := make([]model.Pair, 0, d.PairCount())
	for _, n := range d.Nodes() {
		for _, e := range d.perNode[n] {
			pairs = append(pairs, model.Pair{Node: n, Attr: e.attr})
		}
	}
	return pairs
}

// Clone returns a deep copy of the demand.
func (d *Demand) Clone() *Demand {
	c := NewDemand()
	for n, es := range d.perNode {
		c.perNode[n] = slices.Clone(es)
	}
	return c
}
