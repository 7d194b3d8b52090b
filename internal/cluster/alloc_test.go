//go:build !race

package cluster

import (
	"testing"

	"remo/internal/agg"
	"remo/internal/core"
	"remo/internal/cost"
	"remo/internal/transport"
	"remo/internal/workload"
)

// fig6aCfg builds a Fig. 6a-shaped workload (capacities 150-400, cost
// 10 + 1/value, 150 tasks of 3 attrs) scaled to the given node count.
func fig6aCfg(tb testing.TB, nodes int) Config {
	tb.Helper()
	sys, err := workload.System(workload.SystemConfig{
		Nodes: nodes, Attrs: 100, CapacityLo: 150, CapacityHi: 400,
		CentralCapacity: float64(nodes) * 12,
		Cost:            cost.Model{PerMessage: 10, PerValue: 1},
		Seed:            9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tasks := workload.Tasks(sys, workload.TaskConfig{
		Count: 150, AttrsPerTask: 3, NodesPerTask: nodes / 10, Seed: 16,
	})
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		tb.Fatal(err)
	}
	res := core.NewPlanner().Plan(sys, d)
	return Config{Sys: sys, Forest: res.Forest, Demand: d, Rounds: 100, EnforceCapacity: true}
}

// TestAllocsStepBudget pins the round engine's steady-state allocation
// behavior with the aggregation spec every session carries: after
// warm-up (compose buffers, relay maps, mailboxes and
// the collector's dense arrays are all sized), a full collection round
// at Fig. 6 shape stays within a small constant allocation budget —
// independent of node count, message volume, or values in flight.
// Excluded from race builds because the race runtime instruments
// allocations.
func TestAllocsStepBudget(t *testing.T) {
	cfg := fig6aCfg(t, 50)
	// Every session's planner carries a non-nil aggregation spec, so
	// every real compose goes through aggregate: pin that path.
	cfg.Spec = agg.NewSpec()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	// Warm up: buffers grow to their steady-state sizes within a few
	// rounds (tree height bounds how long values accumulate).
	if err := m.StepN(10); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	})
	// Measured steady state is ~2 allocs/round (the two phase-dispatch
	// closures); 8 leaves headroom for amortized map/slice growth.
	if allocs > 8 {
		t.Fatalf("Machine.Step allocates %.1f/round steady-state, budget 8", allocs)
	}
}

// TestAllocsStepBudgetTCP is TestAllocsStepBudget over the TCP
// transport: once every mailbox, arena and read buffer has grown, a
// round decodes its frames in place, so the round's allocations do not
// grow with the frames it moves.
func TestAllocsStepBudgetTCP(t *testing.T) {
	cfg := fig6aCfg(t, 50)
	cfg.Spec = agg.NewSpec()
	tr, err := transport.NewTCP(cfg.Sys.NodeIDs())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	cfg.Transport = tr
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(10); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 8/round, the memory transport's count — the transport
	// itself allocates nothing per round.
	if allocs > 8 {
		t.Fatalf("Machine.Step over TCP allocates %.1f/round steady-state, budget 8", allocs)
	}
}
