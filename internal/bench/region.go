package bench

import (
	"fmt"

	"remo"
	"remo/internal/cluster"
	"remo/internal/core"
	"remo/internal/cost"
	"remo/internal/metrics"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/transport"
)

// regionBytesColumns are the series of the WAN-pricing table: inter-
// region wire bytes shipped by the topology-blind and topology-aware
// plans of the identical workload, the resulting cross-region byte
// reduction factor, and both plans' collection coverage (which must
// stay at parity — topology awareness reroutes, it must not shed).
var regionBytesColumns = []string{
	"CROSS_KB_BLIND", "CROSS_KB_AWARE", "REDUCTION_X", "COV_BLIND_PCT", "COV_AWARE_PCT",
}

// regionLossColumns are the series of the region-loss timeline: the
// lowest surviving region's planned coverage of the base demand, the
// lost region's residual coverage, and cumulative automatic repairs.
var regionLossColumns = []string{"MIN_SURV_COV_PCT", "LOST_COV_PCT", "REPAIRS"}

// regionInterCost is the WAN multiplier every sweep point plans
// against (the default cross-region price).
const regionInterCost = cost.DefaultInterRegionCost

// regionFloorPct is the coverage floor every surviving region must hold
// after the region loss, read off the timeline's final row.
const regionFloorPct = 90

// regionEnv prepares the headline WAN deployment: the Fig. 6a shape
// (200 nodes, 150 dense tasks at scale 1) cut into contiguous regions
// with the collector homed in r0. Capacities are generous so both
// pricing schemes collect everything — this experiment meters where
// bytes travel, not admission.
func regionEnv(o Options, regions int, seed int64) (env, error) {
	nodes := o.scaleInt(200, 30)
	return buildEnv(o, envConfig{
		nodes:        nodes,
		attrPool:     o.scaleInt(50, 10),
		tasks:        o.scaleInt(150, 10),
		attrsPerTask: 20,
		nodesPerTask: maxInt(3, nodes/10),
		capLo:        2e4,
		capHi:        4e4,
		central:      1e8,
		regions:      regions,
		interCost:    regionInterCost,
		seed:         seed,
	})
}

// Region measures what WAN topology awareness buys on the headline
// 3-region Fig. 6a workload. Table A plans the identical demand twice —
// once topology-blind (uniform pricing), once topology-aware — and runs
// both plans over the same priced system, metering inter-region wire
// bytes as the WAN is cut into more regions. Table B drives a monitored
// session through a permanent loss of region r1 and samples the
// surviving regions' coverage before the loss, at the end of the
// suspicion window, and after detect→repair re-homes the orphaned
// trees. The headline is the 3-region row's REDUCTION_X (>= 2 with
// coverage parity at full scale) and the timeline's final
// MIN_SURV_COV_PCT >= 90 (BENCH_region.json records a run).
func Region(o Options) []*metrics.Table {
	a := metrics.NewTable(
		"WAN topology — cross-region bytes, topology-blind vs topology-aware planning (Fig 6a shape, x = regions)",
		"regions", regionBytesColumns...)
	for _, regions := range []int{2, 3, 6} {
		mustAdd(a, float64(regions), regionBytesPoint(o, regions)...)
	}
	b := regionLossTimeline(o)
	return []*metrics.Table{a, b}
}

// regionBytesPoint plans blind and aware over a WAN cut into the given
// number of regions and meters both over the real (priced) system.
func regionBytesPoint(o Options, regions int) []float64 {
	e, err := regionEnv(o, regions, o.Seed+170)
	if err != nil {
		panic(fmt.Sprintf("bench: region env: %v", err))
	}
	// The real world prices inter-region edges at the WAN multiplier.
	world := e.sys.Clone()
	world.ApplyTopology(cost.NewTopology(1, regionInterCost))

	// Blind: planned as if every edge cost 1 (the pre-WAN assumption).
	blindSys := e.sys.Clone()
	blindSys.ApplyTopology(nil)
	blind := core.NewPlanner().Plan(blindSys, e.d).Forest
	// Aware: planned against the real prices.
	aware := core.NewPlanner().Plan(world, e.d).Forest

	crossBlind, covBlind := meteredRegionRun(world, blind, e, o, 1)
	crossAware, covAware := meteredRegionRun(world, aware, e, o, 2)
	reduction := 0.0
	if crossAware > 0 {
		reduction = crossBlind / crossAware
	}
	return []float64{crossBlind / 1024, crossAware / 1024, reduction, covBlind, covAware}
}

// meteredRegionRun emulates one plan over the priced system behind a
// region-classifying transport and returns inter-region bytes plus the
// percent of demanded pairs collected.
func meteredRegionRun(sys *model.System, f *plan.Forest, e env, o Options, seedSalt uint64) (crossBytes, covPct float64) {
	ct := &transport.Meter{Transport: transport.NewMemory(sys.NodeIDs()), RegionOf: sys.RegionOf}
	defer func() { _ = ct.Close() }()
	res, err := cluster.Run(cluster.Config{
		Sys:             sys,
		Forest:          f,
		Demand:          e.d,
		Rounds:          maxInt(o.rounds(), 60),
		EnforceCapacity: true,
		Source:          cluster.BurstyWalk{Seed: uint64(o.Seed) + seedSalt},
		Transport:       ct,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: region run: %v", err))
	}
	return float64(ct.CrossRegionBytes()), pct(res.CoveredPairs, e.d.PairCount())
}

// regionLossTimeline drives a monitored 3-region session through a
// permanent partition of region r1 and samples per-region coverage at
// the phase boundaries. Rows are indexed by round.
func regionLossTimeline(o Options) *metrics.Table {
	const (
		regions   = 3
		suspicion = 3
	)
	perRegion := o.scaleInt(12, 6)
	rounds := maxInt(o.rounds(), 24)
	lossRound := rounds / 3
	lost := remo.RegionName(1)

	nodes := make([]remo.Node, 0, regions*perRegion)
	for r := 0; r < regions; r++ {
		for i := 0; i < perRegion; i++ {
			nodes = append(nodes, remo.Node{
				ID:       remo.NodeID(r*perRegion + i + 1),
				Capacity: 600,
				Attrs:    []remo.AttrID{1, 2, 3},
				Region:   remo.RegionName(r),
			})
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: float64(len(nodes)) * 40,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: region timeline system: %v", err))
	}
	sys.CentralRegion = remo.RegionName(0)
	sys.ApplyTopology(remo.NewTopology(1, regionInterCost))

	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2, 3}, Nodes: sys.NodeIDs()})
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Scheme: remo.AdaptAdaptive,
		Seed:   uint64(o.Seed) + 180,
		Chaos: &remo.ChaosConfig{
			RegionPartitions: map[string][]remo.ChaosWindow{
				lost: {{From: lossRound, To: rounds + 1}},
			},
		},
		Failure: &remo.FailurePolicy{SuspicionRounds: suspicion},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: region timeline monitor: %v", err))
	}
	defer func() { _ = mon.Close() }()

	tbl := metrics.NewTable(
		"WAN topology — region-loss timeline: surviving coverage through partition, detection and repair",
		"round", regionLossColumns...)
	samples := []int{lossRound - 1, lossRound + suspicion, rounds}
	next := 0
	for round := 1; round <= rounds; round++ {
		if err := mon.Run(1); err != nil {
			panic(fmt.Sprintf("bench: region timeline run: %v", err))
		}
		if next < len(samples) && round == samples[next] {
			next++
			cov := mon.RegionCoverage()
			minSurv := 100.0
			for r, pctCov := range cov {
				if r != lost && pctCov < minSurv {
					minSurv = pctCov
				}
			}
			mustAdd(tbl, float64(round), minSurv, cov[lost], float64(len(mon.Report().Repairs)))
		}
	}
	// The bench is itself an acceptance check: the machine-verified
	// region floor must hold on the final state.
	if err := mon.VerifyRegionCoverage(regionFloorPct); err != nil {
		panic(fmt.Sprintf("bench: region floor violated after repair: %v", err))
	}
	if err := mon.Verify(); err != nil {
		panic(fmt.Sprintf("bench: region timeline failed verification: %v", err))
	}
	return tbl
}
