// Quickstart: plan a monitoring topology for a small cluster, inspect
// it, and run it as an emulated monitoring session.
package main

import (
	"fmt"
	"log"
	"os"

	"remo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 16-node cluster. Every node can observe three metrics: CPU (1),
	// memory (2) and request latency (3). Capacities are per-round
	// budgets in cost units under cost(msg) = C + a·x.
	const (
		cpu     = remo.AttrID(1)
		mem     = remo.AttrID(2)
		latency = remo.AttrID(3)
	)
	nodes := make([]remo.Node, 16)
	ids := make([]remo.NodeID, 16)
	for i := range nodes {
		ids[i] = remo.NodeID(i + 1)
		nodes[i] = remo.Node{
			ID:       ids[i],
			Capacity: 100,
			Attrs:    []remo.AttrID{cpu, mem, latency},
		}
	}
	sys, err := remo.NewSystem(remo.SystemSpec{
		CentralCapacity: 400,
		Cost:            remo.CostModel{PerMessage: 10, PerValue: 1},
		Nodes:           nodes,
	})
	if err != nil {
		return err
	}

	// Three monitoring tasks with overlapping scopes; duplicated
	// node-attribute pairs are collected once.
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "fleet-cpu", Attrs: []remo.AttrID{cpu}, Nodes: ids})
	p.MustAddTask(remo.Task{Name: "fleet-mem", Attrs: []remo.AttrID{mem}, Nodes: ids})
	p.MustAddTask(remo.Task{Name: "frontend-health", Attrs: []remo.AttrID{cpu, latency}, Nodes: ids[:8]})

	raw, distinct := p.DedupStats()
	fmt.Printf("task manager: %d raw pairs -> %d after duplicate elimination\n", raw, distinct)

	plan, err := p.Plan()
	if err != nil {
		return err
	}
	if err := plan.Describe(os.Stdout); err != nil {
		return err
	}

	// Run the plan: update messages flowing up the planned trees, a
	// central collector measuring freshness.
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 42})
	if err != nil {
		return err
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(60); err != nil {
		return err
	}
	rep := mon.Report()
	fmt.Printf("deployed %d rounds: %d/%d pairs covered, %.2f%% avg error, %.2f rounds avg staleness\n",
		rep.Rounds, rep.CoveredPairs, rep.DemandedPairs, rep.AvgPercentError, rep.AvgStaleness)
	fmt.Printf("traffic: %d messages, %d values delivered, %d dropped\n",
		rep.MessagesSent, rep.ValuesDelivered, rep.MessagesDropped)
	return nil
}
