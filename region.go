package remo

import (
	"fmt"

	"remo/internal/verify"
)

// RegionCoverage reports, per region, the percentage of the session's
// base demand (the full task set, before any failure pruning) whose
// pairs the currently installed topology still collects. A healthy
// session reports 100 everywhere; after a region loss the lost region
// falls toward 0 while detect→repair re-homes the surviving regions'
// orphaned trees back toward their pre-loss coverage. The map feeds the
// service gauges and the region bench timeline.
func (m *Monitor) RegionCoverage() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return verify.RegionCoverageMap(m.s.verifyContext(m.s.baseDemand), m.s.adaptor.Forest())
}

// VerifyRegionCoverage machine-checks the region-loss survival
// invariant on the live session: lost regions are written off, and
// every surviving region must keep at least floorPct of its base
// demand collected by the installed topology. A region counts as lost
// when it has at least one node declared dead and no live member left
// in the installed forest — nodes the plan never placed cannot
// heartbeat, so requiring literally every node dead would let a fully
// partitioned region masquerade as surviving. Returns a
// verify.ErrRegion-wrapped error on violation.
func (m *Monitor) VerifyRegionCoverage(floorPct float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.s.verifyRegionCoverage(floorPct); err != nil {
		return fmt.Errorf("remo: %w", err)
	}
	return nil
}

func (s *session) verifyRegionCoverage(floorPct float64) error {
	sys, forest := s.planner.sys, s.adaptor.Forest()
	live := make(map[string]bool)
	for _, t := range forest.Trees {
		for _, n := range t.Members() {
			if _, dead := s.dead[n]; !dead {
				live[sys.RegionOf(n)] = true
			}
		}
	}
	lost := make(map[string]bool)
	for r, ids := range sys.RegionNodes() {
		if len(ids) == 0 || live[r] {
			continue
		}
		for _, n := range ids {
			if _, dead := s.dead[n]; dead {
				lost[r] = true
				break
			}
		}
	}
	return verify.RegionCoverage(s.verifyContext(s.baseDemand), forest, lost, floorPct)
}
