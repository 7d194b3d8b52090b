// Datacenter shows the extension features on an application
// provisioning scenario: fleet-wide hot-spot detection with in-network
// MAX aggregation, slow-changing disk metrics piggybacking at reduced
// frequency, and a mission-critical metric delivered redundantly over
// disjoint paths (SSDP).
package main

import (
	"fmt"
	"log"
	"os"

	"remo"
)

const (
	attrCPU  = remo.AttrID(1)
	attrMem  = remo.AttrID(2)
	attrNet  = remo.AttrID(3)
	attrDisk = remo.AttrID(4)
	attrSLA  = remo.AttrID(5)
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	nodes := make([]remo.Node, 48)
	ids := make([]remo.NodeID, len(nodes))
	for i := range nodes {
		ids[i] = remo.NodeID(i + 1)
		nodes[i] = remo.Node{
			ID:       ids[i],
			Capacity: 90,
			Attrs:    []remo.AttrID{attrCPU, attrMem, attrNet, attrDisk, attrSLA},
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: 700,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		return err
	}

	p := remo.NewPlanner(sys,
		// Hot-spot detection needs only the fleet-wide maximum: partial
		// maxima merge at every hop, so these trees are nearly free.
		remo.WithAggregation(attrCPU, remo.AggMax, 0),
		remo.WithAggregation(attrMem, remo.AggMax, 0),
	)

	// Fleet-wide provisioning telemetry.
	p.MustAddTask(remo.Task{Name: "hotspots", Attrs: []remo.AttrID{attrCPU, attrMem}, Nodes: ids})
	p.MustAddTask(remo.Task{Name: "net", Attrs: []remo.AttrID{attrNet}, Nodes: ids})
	p.MustAddTask(remo.Task{Name: "disk", Attrs: []remo.AttrID{attrDisk}, Nodes: ids})

	// Disk utilization drifts slowly: collect it at a quarter of the
	// base rate; it piggybacks on each node's faster metrics.
	if err := p.SetFrequency(attrDisk, 0.25); err != nil {
		return err
	}

	// SLA violations must reach the collector even if a relay fails:
	// two copies over disjoint trees.
	if err := p.AddReliableTask(remo.Task{
		Name:  "sla-critical",
		Attrs: []remo.AttrID{attrSLA},
		Nodes: ids,
	}, 2); err != nil {
		return err
	}

	plan, err := p.Plan()
	if err != nil {
		return err
	}
	if err := plan.Describe(os.Stdout); err != nil {
		return err
	}

	// Normal operation.
	clean, err := runSession(p, remo.MonitorConfig{Seed: 3}, 40)
	if err != nil {
		return err
	}
	fmt.Printf("healthy run:   %d/%d pairs covered, %.2f%% avg error\n",
		clean.CoveredPairs, clean.DemandedPairs, clean.AvgPercentError)

	// Kill one replica path's root mid-run, for good, and leave the
	// topology unrepaired: the SLA metric must stay covered through the
	// surviving tree.
	victim := plan.Trees()[0].Root
	faulty, err := runSession(p, remo.MonitorConfig{
		Seed: 3,
		Chaos: &remo.ChaosConfig{CrashWindows: map[remo.NodeID][]remo.ChaosWindow{
			victim: {{From: 10, To: 40}},
		}},
		Failure: &remo.FailurePolicy{DisableRepair: true},
	}, 40)
	if err != nil {
		return err
	}
	fmt.Printf("with %v down:  %d/%d pairs covered, %.2f%% avg error\n",
		victim, faulty.CoveredPairs, faulty.DemandedPairs, faulty.AvgPercentError)
	return nil
}

// runSession runs the planner's plan as a session for the given rounds
// and returns what its collector observed.
func runSession(p *remo.Planner, cfg remo.MonitorConfig, rounds int) (remo.DeployReport, error) {
	mon, err := p.StartMonitor(cfg)
	if err != nil {
		return remo.DeployReport{}, err
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(rounds); err != nil {
		return remo.DeployReport{}, err
	}
	return mon.Report(), nil
}
