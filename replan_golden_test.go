package remo_test

import (
	"hash/fnv"
	"strconv"
	"testing"

	"remo"
	"remo/internal/cost"
	"remo/internal/workload"
)

// churnOps is the length of the fixed churn replay.
const churnOps = 30

// churnSchedule builds the replay TestReplanChurnGolden and
// BenchmarkReplanChurn share: a capacity-starved system (20 nodes, 8
// attributes, 8 tasks of 3 attributes on 6 nodes) and churnOps ops
// cycling create → modify → remove of 2-attribute, 4-node tasks, so the
// replanner takes both its scoped and its full path. Each op is the
// whole desired task set after it; modify redraws a task's attributes
// and keeps its nodes.
func churnSchedule(tb testing.TB) (*remo.Planner, [][]remo.Task) {
	tb.Helper()
	sys, err := workload.System(workload.SystemConfig{
		Nodes: 20, Attrs: 8, CapacityLo: 100, CapacityHi: 250,
		CentralCapacity: 800,
		Cost:            cost.Model{PerMessage: 10, PerValue: 1},
		Seed:            31,
	})
	if err != nil {
		tb.Fatal(err)
	}
	base := workload.Tasks(sys, workload.TaskConfig{Count: 8, AttrsPerTask: 3, NodesPerTask: 6, Seed: 32})
	created := workload.Tasks(sys, workload.TaskConfig{Count: churnOps / 3, AttrsPerTask: 2, NodesPerTask: 4, Seed: 33, Prefix: "churn"})
	redrawn := workload.Tasks(sys, workload.TaskConfig{Count: churnOps / 3, AttrsPerTask: 2, NodesPerTask: 4, Seed: 34, Prefix: "churn"})

	p := remo.NewPlanner(sys)
	for _, t := range base {
		p.MustAddTask(t)
	}
	ops := make([][]remo.Task, 0, churnOps)
	for i := range created {
		modified := created[i]
		modified.Attrs = redrawn[i].Attrs
		ops = append(ops,
			append(append([]remo.Task(nil), base...), created[i]),
			append(append([]remo.Task(nil), base...), modified),
			base)
	}
	return p, ops
}

// replayChurn boots a memory-transport monitor on p, applies every op
// through SetTasks with one round between ops, and returns the installed
// forest's fingerprint after each op.
func replayChurn(tb testing.TB, p *remo.Planner, ops [][]remo.Task) []uint64 {
	tb.Helper()
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 31})
	if err != nil {
		tb.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	fps := make([]uint64, 0, len(ops))
	for _, tasks := range ops {
		rep, err := mon.SetTasks(tasks)
		if err != nil {
			tb.Fatal(err)
		}
		fps = append(fps, rep.Fingerprint)
		if err := mon.Run(1); err != nil {
			tb.Fatal(err)
		}
	}
	return fps
}

// goldenReplanChurn is the FNV-1a hash of replayChurn's fingerprint
// sequence, taken when the planner still kept per-node demand in maps.
// A planner refactor that leaves every decision alone leaves it
// unchanged; regenerate it only for an intended change of plans.
const goldenReplanChurn = 0xff8e3f4340b20954

// TestReplanChurnGolden pins the incremental replanner's path: the
// sequence of installed forests over a fixed churn schedule.
func TestReplanChurnGolden(t *testing.T) {
	p, ops := churnSchedule(t)
	h := fnv.New64a()
	for _, fp := range replayChurn(t, p, ops) {
		h.Write([]byte(strconv.FormatUint(fp, 16) + "\n"))
	}
	if got := h.Sum64(); got != goldenReplanChurn {
		t.Fatalf("replan fingerprint sequence hash = %#x, want %#x", got, uint64(goldenReplanChurn))
	}
}
