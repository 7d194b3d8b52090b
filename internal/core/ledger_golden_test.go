package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/task"
	"remo/internal/workload"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger_plans.golden")

// ledgerShape is one of the performance ledger's four system shapes
// (the sizes and capacity ranges of benchmark/workloads.go), rebuilt
// with the in-tree generators since tier-1 cannot import the benchmark
// module. task-churn and read-mix share a size; their seeds differ so
// the two draw different systems.
type ledgerShape struct {
	name                              string
	seed                              int64
	nodes, attrs                      int
	tasks, attrsPerTask, nodesPerTask int
	capLo, capHi, central             float64
	opAttrs, opNodes                  int
}

var ledgerShapes = []ledgerShape{
	{"steady-collect", 1, 100, 60, 60, 12, 25, 120, 320, 8000, 8, 12},
	{"task-churn", 11, 60, 30, 30, 8, 12, 100, 250, 2500, 8, 12},
	{"read-mix", 21, 60, 30, 30, 8, 12, 100, 250, 2500, 8, 12},
	{"faulty-suppressed", 31, 60, 40, 40, 10, 15, 120, 320, 3500, 8, 12},
}

// ledgerOps is the length of each shape's SetTasks script; a -short
// run replays the first ledgerShortOps ops and checks that prefix.
const (
	ledgerOps      = 60
	ledgerShortOps = 12
)

// ledgerScript builds a shape's system, its boot demand and the demand
// after each op of a create → modify → remove script, the ledger's
// mutation cycle: modify redraws a task's attributes and keeps its
// nodes.
func ledgerScript(t testing.TB, sh ledgerShape) (*model.System, *task.Demand, []*task.Demand) {
	t.Helper()
	seed := sh.seed
	sys, err := workload.System(workload.SystemConfig{
		Nodes: sh.nodes, Attrs: sh.attrs,
		CapacityLo: sh.capLo, CapacityHi: sh.capHi,
		CentralCapacity: sh.central,
		Cost:            cost.Model{PerMessage: 10, PerValue: 1},
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := workload.Tasks(sys, workload.TaskConfig{
		Count: sh.tasks, AttrsPerTask: sh.attrsPerTask, NodesPerTask: sh.nodesPerTask, Seed: seed + 1,
	})
	cycles := ledgerOps / 3
	created := workload.Tasks(sys, workload.TaskConfig{
		Count: cycles, AttrsPerTask: sh.opAttrs, NodesPerTask: sh.opNodes, Seed: seed + 2, Prefix: "churn",
	})
	redrawn := workload.Tasks(sys, workload.TaskConfig{
		Count: cycles, AttrsPerTask: sh.opAttrs, NodesPerTask: sh.opNodes, Seed: seed + 3, Prefix: "churn",
	})
	demand := func(tasks []model.Task) *task.Demand {
		d, err := workload.Demand(sys, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	boot := demand(base)
	ops := make([]*task.Demand, 0, ledgerOps)
	for i := range created {
		modified := created[i].Clone()
		modified.Attrs = redrawn[i].Attrs
		ops = append(ops,
			demand(append(append([]model.Task(nil), base...), created[i])),
			demand(append(append([]model.Task(nil), base...), modified)),
			boot)
	}
	return sys, boot, ops
}

// ledgerRun is one replay's record: the boot plan and every op's plan.
type ledgerRun struct {
	bootFP                        uint64
	bootEvals, bootBuilds, bootRe int
	ops                           []ReplanStats
	opFPs                         []uint64
}

func replayLedger(t testing.TB, sh ledgerShape, workers, nops int) ledgerRun {
	t.Helper()
	sys, boot, ops := ledgerScript(t, sh)
	ops = ops[:nops]
	p := NewPlanner(WithWorkers(workers))
	r := NewReplanner(p, sys, boot)
	cur := r.Current()
	run := ledgerRun{
		bootFP:     cur.Forest.Fingerprint(),
		bootEvals:  cur.Evaluations,
		bootBuilds: cur.TreeBuilds,
		bootRe:     cur.TreeReuses,
	}
	for _, d := range ops {
		res, st := r.Update(d)
		run.ops = append(run.ops, st)
		run.opFPs = append(run.opFPs, res.Forest.Fingerprint())
	}
	return run
}

// TestLedgerPlansGolden pins the planner's output on the ledger's four
// shapes: the boot plan's forest fingerprint and, after each op of a
// 60-op SetTasks script, the replanned forest's fingerprint, plus the
// sequential search's work counts (evaluations, tree builds, memo
// reuses). A planner speed-up must leave every row alone; a change of
// plans re-takes the file with -update and says which rows moved. The
// fingerprints must also be equal at 2 and 4 workers, where the counts
// may differ. -short replays each script's first ledgerShortOps ops at
// 1 and 2 workers and checks those rows only.
func TestLedgerPlansGolden(t *testing.T) {
	nops, widths := ledgerOps, []int{2, 4}
	if testing.Short() && !*updateLedger {
		nops, widths = ledgerShortOps, []int{2}
	}
	var b strings.Builder
	var want []string
	for _, sh := range ledgerShapes {
		seq := replayLedger(t, sh, 1, nops)
		fmt.Fprintf(&b, "%s boot fp=%016x evals=%d builds=%d reuses=%d\n",
			sh.name, seq.bootFP, seq.bootEvals, seq.bootBuilds, seq.bootRe)
		for i, st := range seq.ops {
			fmt.Fprintf(&b, "%s op%02d fp=%016x evals=%d builds=%d reuses=%d incr=%t\n",
				sh.name, i+1, seq.opFPs[i], st.Evaluations, st.TreeBuilds, st.TreeReuses, st.Incremental)
		}
		for _, w := range widths {
			par := replayLedger(t, sh, w, nops)
			if par.bootFP != seq.bootFP {
				t.Errorf("%s: boot fingerprint at %d workers %016x, sequential %016x", sh.name, w, par.bootFP, seq.bootFP)
			}
			for i := range seq.opFPs {
				if par.opFPs[i] != seq.opFPs[i] {
					t.Errorf("%s op%02d: fingerprint at %d workers %016x, sequential %016x", sh.name, i+1, w, par.opFPs[i], seq.opFPs[i])
				}
			}
		}
	}
	path := filepath.Join("testdata", "ledger_plans.golden")
	got := b.String()
	if *updateLedger {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	for i, row := range strings.Split(strings.TrimSuffix(string(file), "\n"), "\n") {
		if i%(ledgerOps+1) <= nops {
			want = append(want, row)
		}
	}
	gl := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(gl) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(gl), len(want))
	}
	for i := range gl {
		if gl[i] != want[i] {
			t.Errorf("row moved:\n got: %s\nwant: %s", gl[i], want[i])
		}
	}
}
