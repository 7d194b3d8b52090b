// Streamapp reproduces the paper's motivating deployment in miniature:
// a distributed stream-processing application (the System S /
// YieldMonitor stand-in from internal/streams) runs across the cluster,
// and operators' rates, buffer occupancies and CPU loads are monitored.
// The example compares the freshness of REMO's resource-aware topology
// against the singleton-set baseline on the same workload.
package main

import (
	"fmt"
	"log"

	"remo"
	"remo/internal/streams"
	"remo/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		nodeCount  = 60
		opsPerNode = 10 // 10 operators x 4 metrics = 40 attrs per node
		rounds     = 60
		taskCount  = 40
	)

	// The monitored system: each node's budget covers its own updates
	// plus limited relaying, as on the paper's BlueGene/P deployment.
	sys, err := workload.System(workload.SystemConfig{
		Nodes:           nodeCount,
		Attrs:           opsPerNode * streams.MetricsPerOp,
		CapacityLo:      250,
		CapacityHi:      600,
		CentralCapacity: 2500,
		Seed:            7,
	})
	if err != nil {
		return err
	}

	// The stream application whose state is being monitored.
	app, err := streams.NewPipelineApp(sys.NodeIDs(), opsPerNode, 7)
	if err != nil {
		return err
	}
	app.Simulate(rounds)

	// Monitoring tasks: debugging and provisioning queries over operator
	// metrics (input rate, buffer occupancy, CPU, ...).
	tasks := workload.Tasks(sys, workload.TaskConfig{
		Count:        taskCount,
		AttrsPerTask: 12,
		NodesPerTask: nodeCount / 5,
		Seed:         8,
		Prefix:       "probe",
	})

	schemes := []struct {
		name string
		opt  remo.PlannerOption
	}{
		{"REMO", remo.WithBaseline(remo.BaselineNone)},
		{"SINGLETON-SET", remo.WithBaseline(remo.BaselineSingletonSet)},
		{"ONE-SET", remo.WithBaseline(remo.BaselineOneSet)},
	}
	for _, scheme := range schemes {
		schemeName := scheme.name
		p := remo.NewPlanner(sys, scheme.opt)
		for _, t := range tasks {
			if err := p.AddTask(t); err != nil {
				return err
			}
		}
		plan, err := p.Plan()
		if err != nil {
			return err
		}
		// Ground truth comes from the stream simulation.
		mon, err := p.StartMonitor(remo.MonitorConfig{Source: app})
		if err != nil {
			return err
		}
		err = mon.Run(rounds)
		rep := mon.Report()
		_ = mon.Close()
		if err != nil {
			return err
		}
		fmt.Printf("%-16s coverage %5.1f%%  avg error %6.2f%%  staleness %.2f rounds\n",
			schemeName, plan.PercentCollected(), rep.AvgPercentError, rep.AvgStaleness)
	}
	return nil
}
