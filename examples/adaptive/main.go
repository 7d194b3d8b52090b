// Adaptive demonstrates runtime topology adaptation under task churn:
// monitoring tasks are repeatedly modified (as users debug a live
// application) and the four adaptation schemes are compared on planning
// time, reconfiguration traffic and the coverage of the resulting
// topologies.
package main

import (
	"fmt"
	"log"
	"time"

	"remo"
	"remo/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := workload.System(workload.SystemConfig{
		Nodes:      40,
		Attrs:      20,
		CapacityLo: 150,
		CapacityHi: 400,
		Seed:       11,
	})
	if err != nil {
		return err
	}
	initial := workload.Tasks(sys, workload.TaskConfig{
		Count:        25,
		AttrsPerTask: 6,
		NodesPerTask: 8,
		Seed:         12,
		Prefix:       "task",
	})

	fmt.Println("6 churn batches, 5% of tasks mutated per batch:")
	fmt.Printf("%-12s %12s %14s %10s %8s\n", "scheme", "plan time", "adapt msgs", "coverage", "ops")

	for _, scheme := range []struct {
		name string
		mode remo.AdaptScheme
	}{
		{"D-A", remo.AdaptDirectApply},
		{"REBUILD", remo.AdaptRebuild},
		{"NO-THROTTLE", remo.AdaptNoThrottle},
		{"ADAPTIVE", remo.AdaptAdaptive},
	} {
		planner := remo.NewPlanner(sys)
		for _, t := range initial {
			if err := planner.AddTask(t); err != nil {
				return err
			}
		}
		mon, err := planner.StartMonitor(remo.MonitorConfig{Scheme: scheme.mode})
		if err != nil {
			return err
		}

		tasks := initial
		var (
			planTime  time.Duration
			adaptMsgs int
			ops       int
			collected int
		)
		for batch := 0; batch < 6; batch++ {
			tasks = workload.Churn(sys, tasks, workload.ChurnConfig{
				TaskFraction: 0.05,
				AttrFraction: 0.5,
				Seed:         int64(batch) + 100,
			})
			rep, err := mon.SetTasks(tasks)
			if err != nil {
				_ = mon.Close()
				return err
			}
			planTime += rep.PlanTime
			adaptMsgs += rep.AdaptMessages
			ops += rep.Operations
			collected = rep.CollectedPairs
		}
		if err := mon.Close(); err != nil {
			return err
		}
		fmt.Printf("%-12s %12v %14d %9d %8d\n",
			scheme.name, planTime.Round(time.Millisecond), adaptMsgs, collected, ops)
	}
	return nil
}
