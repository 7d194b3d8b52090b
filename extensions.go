package remo

import (
	"errors"
	"fmt"

	"remo/internal/cost"
	"remo/internal/freq"
	"remo/internal/partition"
	"remo/internal/predict"
	"remo/internal/reliability"
	"remo/internal/workload"
)

// RackDistance returns a distance function for System.Distance modeling
// a racked topology (the §3.3 non-uniform-network extension): nodes are
// grouped into racks of rackSize by id, same-rack sends cost intra,
// cross-rack sends cost inter. Sending a message then costs its endpoint
// cost times the distance factor; planning and validation account for
// it.
func RackDistance(rackSize int, intra, inter float64) func(a, b NodeID) float64 {
	return workload.RackDistance(rackSize, intra, inter)
}

// Topology prices overlay edges by the regions of their endpoints (the
// WAN extension of the §3.3 distance model): label nodes with
// Node.Region, then call System.ApplyTopology so planning, incremental
// replanning, capacity validation and verification all charge
// EdgeCost(srcRegion, dstRegion) times the endpoint cost per send.
// NewTopology(1, 10) prices cross-region hops at ten rack-local sends;
// per-link overrides go through Topology.SetLink.
type Topology = cost.Topology

// NewTopology returns a Topology with intra-region edges at intra and
// inter-region edges at inter (non-positive selects the defaults: 1 and
// cost.DefaultInterRegionCost).
func NewTopology(intra, inter float64) *Topology {
	return cost.NewTopology(intra, inter)
}

// RegionName labels region index i the way the synthetic workload
// generator and remo-sim do ("r0", "r1", ...).
func RegionName(i int) string { return workload.RegionName(i) }

// ReliabilityAliasBase is where replica alias attribute ids start; real
// attribute ids must stay below it.
const ReliabilityAliasBase AttrID = 1 << 20

// AddReliableTask registers a task whose values are delivered
// redundantly over disjoint paths (the paper's SSDP mode): replicas
// copies of every value travel in different collection trees. replicas
// counts total copies and must be >= 2.
func (p *Planner) AddReliableTask(t Task, replicas int) error {
	rw, err := reliability.SSDP(t, replicas, p.nextAliasBase(t, replicas))
	return p.addRewrite(rw, err, t.Attrs)
}

// addRewrite registers a replica rewrite of the original attributes:
// each rewritten task, each replica alias of origs, and the rewrite's
// partition constraints.
func (p *Planner) addRewrite(rw reliability.Rewrite, err error, origs []AttrID) error {
	if err != nil {
		return fmt.Errorf("remo: %w", err)
	}
	for _, rt := range rw.Tasks {
		if err := p.mgr.Add(rt); err != nil {
			return fmt.Errorf("remo: %w", err)
		}
	}
	if p.aliases == nil {
		p.aliases = reliability.NewAliasMap()
	}
	for _, orig := range origs {
		for _, alias := range rw.Aliases.Aliases(orig) {
			p.aliases.Add(alias, orig)
		}
	}
	if p.cons == nil {
		p.cons = partition.NewConstraints()
	}
	p.cons.Merge(rw.Constraints)
	return nil
}

// nextAliasBase reserves a private alias id range for one rewrite.
func (p *Planner) nextAliasBase(t Task, replicas int) AttrID {
	if p.aliasNext == 0 {
		p.aliasNext = ReliabilityAliasBase
	}
	base := p.aliasNext
	p.aliasNext += AttrID(len(t.Attrs)*(replicas-1) + 1)
	return base
}

// AddSharedValueTask registers a DSDP (different sources, different
// paths) task: the same logical value is observable at several nodes
// (observerGroups[i] lists the observers of the i-th shared value), and
// replicas copies are collected from distinct observers over distinct
// trees. replicas must be >= 2 and no larger than the smallest group.
func (p *Planner) AddSharedValueTask(name string, attr AttrID, observerGroups [][]NodeID, replicas int) error {
	groups := make(reliability.ObserverGroups, len(observerGroups))
	for i, g := range observerGroups {
		groups[i] = append([]NodeID(nil), g...)
	}
	rw, err := reliability.DSDP(name, attr, groups, replicas,
		p.nextAliasBase(Task{Attrs: []AttrID{attr}}, replicas))
	return p.addRewrite(rw, err, []AttrID{attr})
}

// AddRegionSpreadTask registers a DSDP task whose replicas additionally
// must not be colocated in one region: observer groups are reordered
// round-robin across the system's region labels before replica
// selection, so every replicated value keeps at least one live owner
// when an entire region is lost. Requires a region-labeled system and
// groups spanning >= 2 regions (reliability.ErrColocated otherwise).
func (p *Planner) AddRegionSpreadTask(name string, attr AttrID, observerGroups [][]NodeID, replicas int) error {
	groups := make(reliability.ObserverGroups, len(observerGroups))
	for i, g := range observerGroups {
		groups[i] = append([]NodeID(nil), g...)
	}
	rw, err := reliability.RegionDSDP(name, attr, groups, replicas,
		p.nextAliasBase(Task{Attrs: []AttrID{attr}}, replicas), p.sys.RegionOf)
	return p.addRewrite(rw, err, []AttrID{attr})
}

// SetFrequency declares attribute a's update frequency (updates per
// collection round; only ratios matter). Slower attributes piggyback on
// their node's fastest metric, shrinking their payload weight; rates
// that piggybacking cannot approximate within 10% get their own
// collection trees.
func (p *Planner) SetFrequency(a AttrID, f float64) error {
	if p.freqSpec == nil {
		p.freqSpec = freq.NewSpec()
		p.freqSpec.Tolerance = 0.1
	}
	if err := p.freqSpec.Set(a, f); err != nil {
		return fmt.Errorf("remo: %w", err)
	}
	return nil
}

// ErrPredictionOff is returned by the SetPrediction* family when the
// planner was built without WithPrediction.
var ErrPredictionOff = errors.New("remo: prediction not armed; construct the planner with WithPrediction")

// SetPredictionBound overrides the dead-band suppression error bound
// for attribute a (relative, e.g. 0.02 = 2%). The planner must have
// been built with WithPrediction.
func (p *Planner) SetPredictionBound(a AttrID, eps float64) error {
	if p.predSpec == nil {
		return ErrPredictionOff
	}
	if err := p.predSpec.Set(a, eps); err != nil {
		return fmt.Errorf("remo: %w", err)
	}
	return nil
}

// SetPredictionModel overrides the forecasting model kind for
// attribute a (PredictEWMA or PredictHolt). The planner must have been
// built with WithPrediction.
func (p *Planner) SetPredictionModel(a AttrID, k predict.Kind) error {
	if p.predSpec == nil {
		return ErrPredictionOff
	}
	p.predSpec.SetModel(a, k)
	return nil
}

// SetPredictionSync overrides the periodic model re-sync cadence: every
// cadence rounds (staggered per node) a leaf transmits the true value
// and both replicas reset onto it, bounding how long a silently lost
// marker can keep a pair refusing imputation. The planner must have
// been built with WithPrediction.
func (p *Planner) SetPredictionSync(cadence int) error {
	if p.predSpec == nil {
		return ErrPredictionOff
	}
	if cadence < 1 {
		return fmt.Errorf("remo: prediction sync cadence must be at least 1 round (got %d)", cadence)
	}
	p.predSpec.SyncEvery = cadence
	return nil
}

// SetPredictionRate records an expected transmit rate for attribute a
// (fraction of due rounds actually sent, in (0, 1]); Plan then packs
// against rate-discounted weights and cost estimates scale payload by
// the rate (cost.Rate composes it with frequency weights). Rates feed
// planning only — a live session's suppression is driven by the error
// bounds, never by recorded rates.
func (p *Planner) SetPredictionRate(a AttrID, rate float64) error {
	if p.predSpec == nil {
		return ErrPredictionOff
	}
	p.predSpec.SetRate(a, rate)
	return nil
}

// ObservePredictionRate feeds a realized transmit rate (for example
// 1 - suppressed/observed from a session's DeployReport) back into the
// planner, padded by the spec's safety tolerance so later plans stay
// conservative.
func (p *Planner) ObservePredictionRate(a AttrID, realized float64) error {
	if p.predSpec == nil {
		return ErrPredictionOff
	}
	p.predSpec.ObserveRate(a, realized)
	return nil
}

// resolveAttr maps replica aliases back to their original attribute.
func (p *Planner) resolveAttr(a AttrID) AttrID {
	return p.aliases.Original(a)
}
