package chaos

import (
	"math"

	"remo/internal/model"
)

// RegionLink identifies an undirected inter-region link by its region
// labels. Construct keys through NormLink so the orientation never
// matters.
type RegionLink struct {
	A, B string
}

// NormLink normalizes an undirected region pair into a RegionLink key.
func NormLink(a, b string) RegionLink {
	if b < a {
		a, b = b, a
	}
	return RegionLink{A: a, B: b}
}

// regionOf returns the labeled region of an endpoint (see ForSystem):
// the collector tier's region for the central id, the node's label
// otherwise (unlabeled nodes share the empty default region).
func (c *Config) regionOf(n model.NodeID) string {
	if c == nil {
		return ""
	}
	if n.IsCentral() {
		return c.centralRegion
	}
	return c.regions[n]
}

// RegionPartitioned reports whether region r is cut off from the rest of
// the overlay during the given round.
func (c *Config) RegionPartitioned(r string, round int) bool {
	return c != nil && in(c.RegionPartitions[r], round)
}

// LinkFlapped reports whether the undirected inter-region link between
// ra and rb is down during the given round. Same-region traffic never
// crosses a link and is never flapped.
func (c *Config) LinkFlapped(ra, rb string, round int) bool {
	return c != nil && ra != rb && in(c.LinkFlaps[NormLink(ra, rb)], round)
}

// regionCut applies the region-scoped drop rules to one concrete
// message: traffic inside a region always survives; traffic crossing a
// region boundary dies when either endpoint's region is partitioned or
// when the specific inter-region link is flapped down. Pure window
// membership — no hashing — so the schedule replays identically over
// the memory and TCP overlays.
func (c *Config) regionCut(from, to model.NodeID, round int) bool {
	if len(c.RegionPartitions) == 0 && len(c.LinkFlaps) == 0 {
		return false
	}
	rf, rt := c.regionOf(from), c.regionOf(to)
	if rf == rt {
		return false
	}
	if c.RegionPartitioned(rf, round) || c.RegionPartitioned(rt, round) {
		return true
	}
	return c.LinkFlapped(rf, rt, round)
}

// RollingUpgrade builds a CrashWindows schedule that takes the given
// fraction of members down at a time in consecutive non-overlapping
// waves: wave w covers rounds [start + w·waveRounds, start +
// (w+1)·waveRounds). Members are sorted by id and chunked
// deterministically, so the same inputs always produce the same
// schedule. Returns nil when the inputs cannot form a wave.
func RollingUpgrade(members []model.NodeID, fraction float64, start, waveRounds int) map[model.NodeID][]Window {
	if len(members) == 0 || fraction <= 0 || waveRounds <= 0 {
		return nil
	}
	if fraction > 1 {
		fraction = 1
	}
	ids := append([]model.NodeID(nil), members...)
	model.SortNodes(ids)
	waves := int(math.Ceil(1/fraction - 1e-9))
	if waves < 1 {
		waves = 1
	}
	perWave := (len(ids) + waves - 1) / waves
	out := make(map[model.NodeID][]Window, len(ids))
	for i, n := range ids {
		w := i / perWave
		from := start + w*waveRounds
		out[n] = append(out[n], Window{From: from, To: from + waveRounds})
	}
	return out
}
