package remo_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"remo"
	"remo/internal/reliability"
	"remo/internal/verify"
)

// regionSystem builds regions regions of perRegion nodes each, labeled
// r0..r{regions-1}, with the collector homed in r0 and inter-region
// edges priced at 5x.
func regionSystem(t *testing.T, regions, perRegion int) *remo.System {
	t.Helper()
	nodes := make([]remo.Node, 0, regions*perRegion)
	for r := 0; r < regions; r++ {
		for i := 0; i < perRegion; i++ {
			nodes = append(nodes, remo.Node{
				ID:       remo.NodeID(r*perRegion + i + 1),
				Capacity: 400,
				Attrs:    []remo.AttrID{1, 2, 3},
				Region:   remo.RegionName(r),
			})
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: 8000,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.CentralRegion = remo.RegionName(0)
	sys.ApplyTopology(remo.NewTopology(1, 5))
	return sys
}

// runRegionLoss drives a monitored session through a permanent loss of
// region r1 and returns the closed monitor's report plus the coverage
// map and floor-check error sampled after repair.
func runRegionLoss(t *testing.T, useTCP bool) {
	const (
		regions   = 3
		perRegion = 8
		lossRound = 8
		suspicion = 3
		rounds    = 30
	)
	sys := regionSystem(t, regions, perRegion)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2, 3}, Nodes: sys.NodeIDs()})

	lost := remo.RegionName(1)
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Scheme: remo.AdaptAdaptive,
		Seed:   7,
		UseTCP: useTCP,
		Chaos: &remo.ChaosConfig{
			RegionPartitions: map[string][]remo.ChaosWindow{
				lost: {{From: lossRound, To: rounds + 1}},
			},
		},
		Failure: &remo.FailurePolicy{SuspicionRounds: suspicion},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(rounds); err != nil {
		t.Fatal(err)
	}

	// The partition silences every r1 heartbeat: the detector must
	// declare the whole region dead and the repair loop re-home the
	// orphaned trees onto survivors.
	rep := mon.Report()
	if rep.FailuresDetected != perRegion {
		t.Fatalf("detected %d failures, want the whole region (%d)", rep.FailuresDetected, perRegion)
	}
	if len(rep.Repairs) == 0 {
		t.Fatal("no automatic repairs recorded")
	}

	cov := mon.RegionCoverage()
	if len(cov) != regions {
		t.Fatalf("coverage map %v, want %d regions", cov, regions)
	}
	if cov[lost] > 1 {
		t.Fatalf("lost region still reports %.1f%% coverage", cov[lost])
	}
	for r, pct := range cov {
		if r != lost && pct < 90 {
			t.Fatalf("surviving region %q at %.1f%%, want >= 90", r, pct)
		}
	}
	if err := mon.VerifyRegionCoverage(90); err != nil {
		t.Fatalf("region coverage floor: %v", err)
	}
	// The full invariant suite still holds on the repaired session.
	if err := mon.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	// Survivors keep collecting: re-homed trees exclude every r1 node.
	for _, ev := range rep.Repairs {
		for _, n := range ev.Failed {
			if got := sys.RegionOf(n); got != lost {
				t.Fatalf("node %v from region %q declared failed; only %q was partitioned", n, got, lost)
			}
		}
	}
}

func TestRegionLossSurvivalMemory(t *testing.T) { runRegionLoss(t, false) }

func TestRegionLossSurvivalTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP overlay in -short mode")
	}
	runRegionLoss(t, true)
}

// TestRegionCoverageBeforeLoss asserts the steady-state form: a healthy
// topology-priced session covers every region fully.
func TestRegionCoverageBeforeLoss(t *testing.T) {
	sys := regionSystem(t, 3, 6)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1, 2}, Nodes: sys.NodeIDs()})
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(5); err != nil {
		t.Fatal(err)
	}
	for r, pct := range mon.RegionCoverage() {
		if pct != 100 {
			t.Fatalf("healthy region %q at %.1f%%, want 100", r, pct)
		}
	}
	if err := mon.VerifyRegionCoverage(100); err != nil {
		t.Fatal(err)
	}
}

// TestLinkFlapRecovers asserts a flapped inter-region link only costs
// coverage while the window is open: after it closes and the nodes
// reintegrate, the session verifies clean again.
func TestLinkFlapRecovers(t *testing.T) {
	sys := regionSystem(t, 2, 6)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Scheme: remo.AdaptAdaptive,
		Seed:   11,
		Chaos: &remo.ChaosConfig{
			LinkFlaps: map[remo.ChaosRegionLink][]remo.ChaosWindow{
				remo.ChaosNormLink(remo.RegionName(0), remo.RegionName(1)): {{From: 6, To: 12}},
			},
		},
		Failure: &remo.FailurePolicy{SuspicionRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(30); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	// r1 sits behind the flapped link (collector is in r0): its nodes
	// must be declared dead during the flap and reintegrated after.
	if rep.FailuresDetected == 0 {
		t.Fatal("flap went undetected")
	}
	if rep.NodesRecovered == 0 {
		t.Fatal("no nodes reintegrated after the flap closed")
	}
	if err := mon.VerifyRegionCoverage(90); err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAddRegionSpreadTask exercises the facade: replicas of a critical
// shared value must draw from distinct regions, and colocated observer
// groups are rejected.
func TestAddRegionSpreadTask(t *testing.T) {
	sys := regionSystem(t, 3, 4)
	p := remo.NewPlanner(sys)
	// Observers 1 (r0), 5 (r1), 9 (r2) share one logical value.
	if err := p.AddRegionSpreadTask("disk", 3, [][]remo.NodeID{{1, 5, 9}}, 2); err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Trees()) < 2 {
		t.Fatalf("region-spread task planned %d trees, want >= 2", len(plan.Trees()))
	}

	// All observers in r0: anti-colocation must refuse.
	p2 := remo.NewPlanner(regionSystem(t, 3, 4))
	err = p2.AddRegionSpreadTask("disk", 3, [][]remo.NodeID{{1, 2, 3}}, 2)
	if !errors.Is(err, reliability.ErrColocated) {
		t.Fatalf("colocated observers accepted: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "region") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestMonitorVerifyRegionFloorTrips proves the floor check is
// non-vacuous on a live session: an absurd floor must trip ErrRegion
// even on a healthy run.
func TestMonitorVerifyRegionFloorTrips(t *testing.T) {
	sys := regionSystem(t, 2, 4)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(3); err != nil {
		t.Fatal(err)
	}
	if err := mon.VerifyRegionCoverage(101); !errors.Is(err, verify.ErrRegion) {
		t.Fatalf("floor 101 passed: %v", err)
	}
}

// TestRegionPartitionFollowsEachSystem reuses one partition schedule for
// two plans whose systems label the same nodes the other way round: each
// session must cut off the nodes its own system puts in the
// partitioned region.
func TestRegionPartitionFollowsEachSystem(t *testing.T) {
	cc := &remo.ChaosConfig{RegionPartitions: map[string][]remo.ChaosWindow{
		remo.RegionName(1): {{From: 0, To: math.MaxInt}},
	}}
	flipped := regionSystem(t, 2, 4)
	for i := range flipped.Nodes {
		flipped.Nodes[i].Region = remo.RegionName(1 - i/4)
	}
	for _, sys := range []*remo.System{regionSystem(t, 2, 4), flipped} {
		p := remo.NewPlanner(sys)
		p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
		heard := make(map[remo.NodeID]bool)
		runSession(t, p, remo.MonitorConfig{
			Chaos:   cc,
			Failure: &remo.FailurePolicy{DisableRepair: true},
			OnValue: func(pair remo.Pair, _ int, _ float64) { heard[pair.Node] = true },
		}, 8)
		if len(heard) == 0 {
			t.Fatal("the collector's own region delivered nothing")
		}
		for n := range heard {
			if sys.RegionOf(n) == remo.RegionName(1) {
				t.Fatalf("node %v of the partitioned region delivered", n)
			}
		}
	}
}
