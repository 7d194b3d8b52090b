// Benchmarks regenerating every figure of the paper's evaluation (§7)
// plus micro-benchmarks of the planner's hot paths. Figure benchmarks
// run the corresponding internal/bench experiment at reduced scale and
// report the headline series values as custom metrics; run
// cmd/remo-bench for full-scale tables.
package remo_test

import (
	"bytes"
	"fmt"
	"testing"

	"remo"
	"remo/internal/bench"
	"remo/internal/cluster"
	"remo/internal/core"
	"remo/internal/cost"
	"remo/internal/metrics"
	"remo/internal/model"
	"remo/internal/transport"
	"remo/internal/workload"
)

// benchOpts shrinks the sweeps so a figure regenerates in seconds.
var benchOpts = bench.Options{Scale: 0.12, Seed: 3, Rounds: 10}

// reportColumnMeans attaches each column's mean as a custom metric.
func reportColumnMeans(b *testing.B, tables []*metrics.Table) {
	b.Helper()
	for ti, tbl := range tables {
		for _, col := range tbl.Columns {
			series, ok := tbl.Column(col)
			if !ok {
				b.Fatalf("missing column %q", col)
			}
			b.ReportMetric(metrics.Mean(series), fmt.Sprintf("t%d_%s", ti, sanitize(col)))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func benchFigure(b *testing.B, name string) {
	exp, ok := bench.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		tables = exp.Run(benchOpts)
	}
	reportColumnMeans(b, tables)
}

// BenchmarkFig2MessageOverhead regenerates the cost-model calibration
// (Fig. 2): per-message overhead dominates per-value cost.
func BenchmarkFig2MessageOverhead(b *testing.B) { benchFigure(b, "fig2") }

// BenchmarkFig5PartitionWorkload regenerates Fig. 5 (partition schemes
// vs workload characteristics, panels a-d).
func BenchmarkFig5PartitionWorkload(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6PartitionSystem regenerates Fig. 6 (partition schemes vs
// system characteristics, panels a-d).
func BenchmarkFig6PartitionSystem(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7TreeSchemes regenerates Fig. 7 (tree construction
// schemes, panels a-d).
func BenchmarkFig7TreeSchemes(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8PercentError regenerates Fig. 8 (average percentage error
// on the emulated stream system, panels a-b).
func BenchmarkFig8PercentError(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9Adaptation regenerates Fig. 9 (adaptation schemes under
// churn, panels a-d).
func BenchmarkFig9Adaptation(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10TreeOptSpeedup regenerates Fig. 10 (adjusting-procedure
// optimizations, panels a-b).
func BenchmarkFig10TreeOptSpeedup(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11Allocation regenerates Fig. 11 (capacity allocation
// schemes, panels a-b).
func BenchmarkFig11Allocation(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12Extensions regenerates Fig. 12 (aggregation/frequency
// awareness and replication, panels a-b).
func BenchmarkFig12Extensions(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkAblations regenerates the search-design ablation tables.
func BenchmarkAblations(b *testing.B) { benchFigure(b, "ablations") }

// BenchmarkSuppress regenerates the forecast-suppression experiment
// (wire bytes at accuracy, plus fault robustness); BENCH_suppress.json
// records a full-scale run.
func BenchmarkSuppress(b *testing.B) { benchFigure(b, "suppress") }

// BenchmarkRegion regenerates the WAN-topology experiment (cross-region
// bytes blind vs aware, coverage floor through a region loss);
// BENCH_region.json records a full-scale run.
func BenchmarkRegion(b *testing.B) { benchFigure(b, "region") }

// --- Micro-benchmarks -------------------------------------------------

// benchEnv builds a reusable planning environment.
func benchEnv(b *testing.B, nodes, attrs, tasks int) (*model.System, *core.Planner, func() *remo.Planner) {
	b.Helper()
	sys, err := workload.System(workload.SystemConfig{
		Nodes: nodes, Attrs: attrs, CapacityLo: 150, CapacityHi: 400, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	taskList := workload.Tasks(sys, workload.TaskConfig{
		Count: tasks, AttrsPerTask: 6, NodesPerTask: nodes / 5, Seed: 6,
	})
	mk := func() *remo.Planner {
		p := remo.NewPlanner(sys)
		for _, t := range taskList {
			if err := p.AddTask(t); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	return sys, core.NewPlanner(), mk
}

// BenchmarkPlannerPlan measures the full REMO planning pipeline.
func BenchmarkPlannerPlan(b *testing.B) {
	_, _, mk := benchEnv(b, 40, 15, 20)
	p := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeployRound measures emulated collection rounds per second:
// ten rounds of one booted session per iteration.
func BenchmarkDeployRound(b *testing.B) {
	_, _, mk := benchEnv(b, 40, 15, 20)
	benchRounds(b, mk(), remo.MonitorConfig{}, 10)
}

// BenchmarkPlanFull measures one full plan of runtimeBenchCfg's
// 200-node, 150-task system — what booting the largest forest costs.
func BenchmarkPlanFull(b *testing.B) {
	p := runtimeBenchPlanner(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanChurn times TestReplanChurnGolden's replay: a boot
// plan, then churnOps incremental replans through Monitor.SetTasks.
func BenchmarkReplanChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, ops := churnSchedule(b)
		replayChurn(b, p, ops)
	}
}

// runtimeBenchPlanner loads a Fig. 6a-shaped planner: nodes nodes, 150
// small tasks.
func runtimeBenchPlanner(b *testing.B, nodes int) *remo.Planner {
	b.Helper()
	sys, err := workload.System(workload.SystemConfig{
		Nodes: nodes, Attrs: 100, CapacityLo: 150, CapacityHi: 400,
		CentralCapacity: float64(nodes) * 12,
		Cost:            cost.Model{PerMessage: 10, PerValue: 1},
		Seed:            9,
	})
	if err != nil {
		b.Fatal(err)
	}
	taskList := workload.Tasks(sys, workload.TaskConfig{
		Count: 150, AttrsPerTask: 3, NodesPerTask: nodes / 10, Seed: 16,
	})
	p := remo.NewPlanner(sys)
	for _, t := range taskList {
		if err := p.AddTask(t); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

// benchRounds boots one session of p outside the timer and times
// rounds rounds of it per iteration, reporting values delivered per
// round.
func benchRounds(b *testing.B, p *remo.Planner, cfg remo.MonitorConfig, rounds int) {
	b.Helper()
	mon, err := p.StartMonitor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mon.Run(rounds); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rep := mon.Report()
	b.ReportMetric(float64(rep.ValuesDelivered)/float64(rep.Rounds), "values/round")
}

// BenchmarkRuntimeMemory measures the worker-pool round engine over the
// memory transport at the Fig. 6a anchor scale (200 nodes, 150 small
// tasks): 50 rounds per iteration.
func BenchmarkRuntimeMemory(b *testing.B) {
	benchRounds(b, runtimeBenchPlanner(b, 200), remo.MonitorConfig{}, 50)
}

// BenchmarkRuntimeTCP is BenchmarkRuntimeMemory over loopback TCP with
// the batched write path (the transport default), at 50 nodes and 30
// rounds per iteration.
func BenchmarkRuntimeTCP(b *testing.B) {
	benchRounds(b, runtimeBenchPlanner(b, 50), remo.MonitorConfig{UseTCP: true}, 30)
}

// BenchmarkCodecEncode measures wire-format encoding.
func BenchmarkCodecEncode(b *testing.B) {
	msg := benchMessage(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.Encode(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecode measures wire-format decoding.
func BenchmarkCodecDecode(b *testing.B) {
	frame, err := transport.Encode(benchMessage(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.Decode(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMessage(values int) transport.Message {
	msg := transport.Message{TreeKey: "1,2,3", From: 7, To: model.Central}
	for i := 0; i < values; i++ {
		msg.Values = append(msg.Values, transport.Value{
			Node: model.NodeID(i + 1), Attr: model.AttrID(i%8 + 1), Round: i, Value: float64(i) * 1.5,
		})
	}
	return msg
}

// BenchmarkMemoryTransport measures the in-process transport round trip.
func BenchmarkMemoryTransport(b *testing.B) {
	tr := transport.NewMemory([]model.NodeID{1})
	defer func() { _ = tr.Close() }()
	msg := benchMessage(16)
	msg.To = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Send(msg); err != nil {
			b.Fatal(err)
		}
		if got := tr.Drain(1); len(got) != 1 {
			b.Fatal("lost message")
		}
	}
}

// BenchmarkBurstyWalk measures ground-truth value generation (hot inside
// the emulation).
func BenchmarkBurstyWalk(b *testing.B) {
	w := cluster.BurstyWalk{Seed: 1}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += w.Value(model.NodeID(i%100), model.AttrID(i%40), i)
	}
	_ = sink
}
