// Package alloc implements tree-wise capacity allocation: how a node that
// participates in several monitoring trees divides its capacity budget
// among them (§5.2 of the paper).
//
// REMO constructs trees sequentially, so allocation is expressed as a
// sequencing policy: the order in which trees are built plus the capacity
// each participant may spend on the tree about to be built, given what
// previous trees already consumed.
package alloc

import (
	"sort"

	"remo/internal/model"
	"remo/internal/task"
)

// Scheme names an allocation policy.
type Scheme string

// Available schemes, in the paper's Fig. 11 terminology.
const (
	// Uniform divides a node's capacity equally among its trees.
	Uniform Scheme = "UNIFORM"
	// Proportional divides capacity proportionally to the node's local
	// value weight in each tree.
	Proportional Scheme = "PROPORTIONAL"
	// OnDemand gives the tree under construction all remaining capacity.
	OnDemand Scheme = "ON-DEMAND"
	// Ordered is OnDemand with trees constructed from smallest to
	// largest, so small, cost-efficient trees are not starved by large
	// ones built earlier.
	Ordered Scheme = "ORDERED"
)

// Request describes the allocation problem: which attribute sets get
// trees, over which demand and system.
type Request struct {
	Sys    *model.System
	Demand *task.Demand
	Sets   []model.AttrSet
	// Parts optionally overrides participant lookup (a planner-level
	// cache); nil falls back to Demand.Participants.
	Parts func(model.AttrSet) []model.NodeID
}

// participants resolves a set's participant nodes through the cache
// when present.
func (r Request) participants(set model.AttrSet) []model.NodeID {
	if r.Parts != nil {
		return r.Parts(set)
	}
	return r.Demand.Participants(set)
}

// Sequencer plans construction order and per-tree capacity budgets.
type Sequencer interface {
	// Scheme returns the policy name.
	Scheme() Scheme
	// Order returns indices into req.Sets in construction order.
	Order(req Request) []int
	// Avail returns the capacity each participant of req.Sets[k] may
	// spend on tree k, given the usage already consumed by previously
	// constructed trees. usedSoFar may be nil for the first tree.
	Avail(req Request, k int, usedSoFar map[model.NodeID]float64) map[model.NodeID]float64
	// CentralAvail returns the central collector's budget for tree k
	// given its usage so far.
	CentralAvail(req Request, k int, usedSoFar float64) float64
}

// New returns the sequencer for scheme. Unknown schemes fall back to
// Ordered, REMO's default.
func New(scheme Scheme) Sequencer {
	switch scheme {
	case Uniform:
		return uniform{}
	case Proportional:
		return proportional{}
	case OnDemand:
		return onDemand{asGiven: true}
	case Ordered:
		return onDemand{asGiven: false}
	default:
		return onDemand{asGiven: false}
	}
}

// Schemes lists all policies in presentation order.
func Schemes() []Scheme {
	return []Scheme{Uniform, Proportional, OnDemand, Ordered}
}

// treeCountOf returns, for every node, how many of the given sets it
// participates in.
func treeCountOf(req Request) map[model.NodeID]int {
	counts := make(map[model.NodeID]int)
	for _, set := range req.Sets {
		for _, n := range req.participants(set) {
			counts[n]++
		}
	}
	return counts
}

// identityOrder returns 0..len(sets)-1.
func identityOrder(req Request) []int {
	order := make([]int, len(req.Sets))
	for i := range order {
		order[i] = i
	}
	return order
}

type uniform struct{}

func (uniform) Scheme() Scheme          { return Uniform }
func (uniform) Order(req Request) []int { return identityOrder(req) }

func (uniform) Avail(req Request, k int, _ map[model.NodeID]float64) map[model.NodeID]float64 {
	counts := treeCountOf(req)
	avail := make(map[model.NodeID]float64)
	for _, n := range req.participants(req.Sets[k]) {
		c := counts[n]
		if c == 0 {
			c = 1
		}
		avail[n] = req.Sys.Capacity(n) / float64(c)
	}
	return avail
}

func (uniform) CentralAvail(req Request, _ int, _ float64) float64 {
	if len(req.Sets) == 0 {
		return req.Sys.CentralCapacity
	}
	return req.Sys.CentralCapacity / float64(len(req.Sets))
}

type proportional struct{}

func (proportional) Scheme() Scheme          { return Proportional }
func (proportional) Order(req Request) []int { return identityOrder(req) }

func (proportional) Avail(req Request, k int, _ map[model.NodeID]float64) map[model.NodeID]float64 {
	avail := make(map[model.NodeID]float64)
	for _, n := range req.participants(req.Sets[k]) {
		var total float64
		for _, set := range req.Sets {
			total += req.Demand.LocalWeight(n, set)
		}
		w := req.Demand.LocalWeight(n, req.Sets[k])
		if total <= 0 {
			avail[n] = 0
			continue
		}
		avail[n] = req.Sys.Capacity(n) * w / total
	}
	return avail
}

func (proportional) CentralAvail(req Request, k int, _ float64) float64 {
	var total, mine float64
	for i, set := range req.Sets {
		w := float64(req.Demand.PairCountIn(set))
		total += w
		if i == k {
			mine = w
		}
	}
	if total <= 0 {
		return req.Sys.CentralCapacity
	}
	return req.Sys.CentralCapacity * mine / total
}

// onDemand implements both ON-DEMAND (construction order as given) and
// ORDERED (smallest trees first).
type onDemand struct {
	asGiven bool
}

func (o onDemand) Scheme() Scheme {
	if o.asGiven {
		return OnDemand
	}
	return Ordered
}

func (o onDemand) Order(req Request) []int {
	order := identityOrder(req)
	if o.asGiven {
		return order
	}
	sizes := make([]int, len(req.Sets))
	for i, set := range req.Sets {
		sizes[i] = len(req.participants(set))
	}
	sort.SliceStable(order, func(i, j int) bool {
		return sizes[order[i]] < sizes[order[j]]
	})
	return order
}

func (onDemand) Avail(req Request, k int, usedSoFar map[model.NodeID]float64) map[model.NodeID]float64 {
	parts := req.participants(req.Sets[k])
	avail := make(map[model.NodeID]float64, len(parts))
	for _, n := range parts {
		avail[n] = req.Sys.Capacity(n) - usedSoFar[n]
		if avail[n] < 0 {
			avail[n] = 0
		}
	}
	return avail
}

func (onDemand) CentralAvail(req Request, _ int, usedSoFar float64) float64 {
	rem := req.Sys.CentralCapacity - usedSoFar
	if rem < 0 {
		return 0
	}
	return rem
}
