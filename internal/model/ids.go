// Package model defines the core data model of the REMO monitoring
// system: node and attribute identifiers, node-attribute pairs,
// monitoring tasks, and the description of the monitored system
// (node capacities, locally observable attributes, cost model).
//
// Every other package in this repository depends on model; model depends
// only on internal/cost.
package model

import (
	"fmt"
	"sort"
)

// NodeID identifies a node. The central data collector is node Central;
// monitoring nodes use positive identifiers.
type NodeID int

// Central is the NodeID of the central data collector, the root of every
// monitoring tree.
const Central NodeID = 0

// IsCentral reports whether the node is the central collector.
func (n NodeID) IsCentral() bool { return n == Central }

// String implements fmt.Stringer.
func (n NodeID) String() string {
	if n == Central {
		return "central"
	}
	return fmt.Sprintf("n%d", int(n))
}

// AttrID identifies an attribute type (for example "cpu utilization").
// Attributes at different nodes with the same AttrID are the same type of
// metric, observed locally at each node.
type AttrID int

// String implements fmt.Stringer.
func (a AttrID) String() string { return fmt.Sprintf("a%d", int(a)) }

// Pair is a node-attribute pair (i, j): the value of attribute j observed
// at node i. The planner's objective is to maximize the number of pairs
// collected at the central node.
type Pair struct {
	Node NodeID
	Attr AttrID
}

// String implements fmt.Stringer.
func (p Pair) String() string { return fmt.Sprintf("(%v,%v)", p.Node, p.Attr) }

// Less orders pairs by node then attribute.
func (p Pair) Less(q Pair) bool {
	if p.Node != q.Node {
		return p.Node < q.Node
	}
	return p.Attr < q.Attr
}

// SortPairs orders pairs by node then attribute, in place.
func SortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Less(pairs[j]) })
}

// SortNodes orders node ids ascending, in place.
func SortNodes(ids []NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// SortAttrs orders attribute ids ascending, in place.
func SortAttrs(ids []AttrID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
