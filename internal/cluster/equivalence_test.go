package cluster

import (
	"reflect"
	"testing"

	"remo/internal/agg"
	"remo/internal/chaos"
	"remo/internal/core"
	"remo/internal/cost"
	"remo/internal/detect"
	"remo/internal/model"
	"remo/internal/transport"
	"remo/internal/workload"
)

// equivCase is one seeded workload for the engine-equivalence proof:
// the worker-pool round engine and the inline single-worker engine must
// produce bit-identical results (delivered values, drops, coverage,
// error) on every one of them.
type equivCase struct {
	name         string
	nodes, attrs int
	capLo, capHi float64
	seed         int64
	rounds       int
	chaos        *chaos.Config
	detect       bool
	spec         *agg.Spec
}

func equivCases() []equivCase {
	sumSpec := agg.NewSpec()
	sumSpec.SetKind(1, agg.Sum)
	return []equivCase{
		{name: "ample", nodes: 20, attrs: 10, capLo: 500, capHi: 900, seed: 1, rounds: 12},
		{name: "tight", nodes: 40, attrs: 20, capLo: 40, capHi: 90, seed: 2, rounds: 12},
		// Loses about one message in seven.
		{name: "drop-every", nodes: 30, attrs: 15, capLo: 200, capHi: 400, seed: 3, rounds: 12,
			chaos: &chaos.Config{DropProb: 1.0 / 7, Seed: 7}},
		{name: "crash-recover", nodes: 25, attrs: 10, capLo: 200, capHi: 400, seed: 4, rounds: 16,
			chaos: &chaos.Config{CrashWindows: map[model.NodeID][]chaos.Window{
				3: {{From: 4, To: 10}},
				7: {{From: 6, To: 16}},
			}},
			detect: true},
		{name: "drop-prob", nodes: 30, attrs: 12, capLo: 200, capHi: 400, seed: 5, rounds: 12,
			chaos: &chaos.Config{DropProb: 0.1, Seed: 11}},
		{name: "delay", nodes: 30, attrs: 12, capLo: 200, capHi: 400, seed: 6, rounds: 14,
			chaos: &chaos.Config{DelayProb: 0.25, MaxDelayRounds: 3, Seed: 12}},
		{name: "mixed-chaos", nodes: 50, attrs: 10, capLo: 150, capHi: 300, seed: 7, rounds: 16,
			chaos: &chaos.Config{
				CrashWindows: map[model.NodeID][]chaos.Window{5: {{From: 5, To: 16}}},
				DropProb:     0.05, DelayProb: 0.1, MaxDelayRounds: 2, Seed: 13,
			},
			detect: true},
		{name: "very-tight", nodes: 35, attrs: 14, capLo: 25, capHi: 60, seed: 8, rounds: 12},
		{name: "aggregated", nodes: 24, attrs: 10, capLo: 200, capHi: 400, seed: 9, rounds: 12,
			spec: sumSpec},
		{name: "larger", nodes: 60, attrs: 20, capLo: 150, capHi: 400, seed: 10, rounds: 10},
		{name: "one-node-trees", nodes: 12, attrs: 4, capLo: 600, capHi: 900, seed: 14, rounds: 8},
		{name: "fig6a-small", nodes: 80, attrs: 30, capLo: 150, capHi: 400, seed: 15, rounds: 8},
	}
}

// equivConfig realizes a case as a cluster config (without a transport).
func (ec equivCase) config(tb testing.TB) Config {
	tb.Helper()
	sys, err := workload.System(workload.SystemConfig{
		Nodes: ec.nodes, Attrs: ec.attrs, CapacityLo: ec.capLo, CapacityHi: ec.capHi,
		CentralCapacity: float64(ec.nodes) * 12,
		Cost:            cost.Model{PerMessage: 10, PerValue: 1},
		Seed:            ec.seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tasks := workload.Tasks(sys, workload.TaskConfig{
		Count: 3 * ec.attrs, AttrsPerTask: 3, NodesPerTask: ec.nodes / 4, Seed: ec.seed + 100,
	})
	d, err := workload.Demand(sys, tasks)
	if err != nil {
		tb.Fatal(err)
	}
	res := core.NewPlanner(core.WithSpec(ec.spec)).Plan(sys, d)
	cfg := Config{
		Sys: sys, Forest: res.Forest, Demand: d, Spec: ec.spec,
		Rounds: ec.rounds, EnforceCapacity: true,
		Source: BurstyWalk{Seed: uint64(ec.seed)},
		Chaos:  ec.chaos,
	}
	if ec.detect {
		cfg.Detect = &detect.Config{}
	}
	return cfg
}

// TestEngineEquivalence proves the worker-pool engine bit-identical to
// the inline engine (Workers: 1, every phase a plain loop) over the
// memory transport on every seeded workload, chaos included.
// TestResultGolden pins that reference to recorded hashes.
func TestEngineEquivalence(t *testing.T) {
	for _, ec := range equivCases() {
		t.Run(ec.name, func(t *testing.T) {
			base := ec.config(t)

			inline := base
			inline.Workers = 1
			want, err := Run(inline)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{0, 2, 3} {
				fast := base
				fast.Workers = workers
				got, err := Run(fast)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d diverged from the inline engine:\ngot  %+v\nwant %+v",
						workers, got, want)
				}
			}
		})
	}
}

// TestEngineEquivalenceAcrossInstall proves the engines also agree when
// the topology and demand are swapped mid-run (the adaptation path:
// relay handoff, counter preservation, collector retargeting).
func TestEngineEquivalenceAcrossInstall(t *testing.T) {
	run := func(workers int) Result {
		ec := equivCase{nodes: 20, attrs: 8, capLo: 200, capHi: 400, seed: 21, rounds: 16}
		cfg := ec.config(t)
		cfg.Workers = workers
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = m.Close() }()
		if err := m.StepN(6); err != nil {
			t.Fatal(err)
		}
		// Grow the demand with a fresh attribute on every node, replan,
		// and install the new topology while values keep flowing.
		nd := cfg.Demand.Clone()
		for _, id := range cfg.Sys.NodeIDs() {
			nd.Set(id, model.AttrID(997), 1)
		}
		res := core.NewPlanner().Plan(cfg.Sys, nd)
		m.InstallDiff(res.Forest, nd)
		if err := m.StepN(10); err != nil {
			t.Fatal(err)
		}
		return m.Result()
	}
	want := run(1)
	for _, workers := range []int{0, 2} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged across Install:\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

// transportEquivCases are the seeded workloads the transport-equivalence
// proof runs over real sockets.
func transportEquivCases() []equivCase {
	return []equivCase{
		{name: "plain", nodes: 16, attrs: 8, capLo: 300, capHi: 600, seed: 31, rounds: 8},
		{name: "tight", nodes: 20, attrs: 10, capLo: 60, capHi: 120, seed: 32, rounds: 8},
		{name: "chaos", nodes: 16, attrs: 8, capLo: 300, capHi: 600, seed: 33, rounds: 10,
			chaos: &chaos.Config{
				CrashWindows: map[model.NodeID][]chaos.Window{2: {{From: 3, To: 10}}},
				DropProb:     0.05, DelayProb: 0.1, Seed: 41,
			},
			detect: true},
	}
}

// TestTransportEquivalence proves the batched TCP write path delivers
// bit-identical results to the memory transport at every watermark:
// coalescing changes syscall counts, never payloads or traffic
// accounting.
func TestTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	for _, ec := range transportEquivCases() {
		t.Run(ec.name, func(t *testing.T) {
			base := ec.config(t)
			want, err := Run(base) // memory transport
			if err != nil {
				t.Fatal(err)
			}

			runTCP := func(batch int) Result {
				opts := transport.TCPOptions{BatchBytes: batch}
				tr, err := transport.NewTCPWithOptions(base.Sys.NodeIDs(), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = tr.Close() }()
				cfg := base
				cfg.Transport = tr
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			batched := runTCP(0) // default watermark
			every := runTCP(1)   // every Send flushes
			tiny := runTCP(128)  // watermark forces mid-round flushes
			for _, got := range []struct {
				name string
				res  Result
			}{{"batched", batched}, {"flush-every-send", every}, {"tiny-watermark", tiny}} {
				if !reflect.DeepEqual(got.res, want) {
					t.Fatalf("TCP %s diverged from memory transport:\ngot  %+v\nwant %+v",
						got.name, got.res, want)
				}
			}
		})
	}
}
