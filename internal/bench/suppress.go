package bench

import (
	"fmt"

	"remo/internal/chaos"
	"remo/internal/cluster"
	"remo/internal/core"
	"remo/internal/metrics"
	"remo/internal/predict"
	"remo/internal/transport"
)

// suppressColumns are the series of the bytes-at-accuracy sweep: wire
// bytes for the baseline (suppression off) and suppressing runs of the
// identical plan, the resulting byte reduction factor, the share of
// eligible observations elided, the collector's average percentage
// error against ground truth, and the worst imputation error as a
// fraction of the dead band (must stay <= 1: imputes come from
// bit-identical replicas).
var suppressColumns = []string{
	"BASE_KB", "SUPP_KB", "REDUCTION_X", "SUPP_PCT", "ERR_PCT", "BAND_MAX",
}

// suppressChaosColumns are the series of the robustness table: each row
// reruns the ε=1% point under one fault schedule and reports the same
// reduction plus the marker-loss ledger. BAND_MAX must hold on every
// row — lost markers make the collector refuse imputation, never guess.
var suppressChaosColumns = []string{
	"REDUCTION_X", "SUPP_PCT", "IMPUTED", "MARKERS_LOST", "BAND_MAX",
}

// suppressEps is the headline error bound: the ε=1% row's REDUCTION_X
// is the number BENCH_suppress.json records.
const suppressEps = 0.01

// suppressEnv prepares the Fig. 6a-shaped deployment (200 nodes, 150
// tasks at scale 1) over the plateau-utilization source — the workload
// class dead-band suppression targets. Two deviations from the
// partition experiments' env: tasks are dense (20 attrs each) so frames
// carry real payloads rather than being header-dominated, and
// capacities are generous so every demanded pair is collected — this
// experiment meters bytes and accuracy, not admission. Suppression
// needs a few sync cycles to pay off, so the emulation runs at least
// 120 rounds.
func suppressEnv(o Options, seed int64) (cluster.Config, error) {
	nodes := o.scaleInt(200, 20)
	e, err := buildEnv(o, envConfig{
		nodes:        nodes,
		attrPool:     o.scaleInt(50, 10),
		tasks:        o.scaleInt(150, 10),
		attrsPerTask: 20,
		nodesPerTask: maxInt(2, nodes/10),
		capLo:        2e4,
		capHi:        4e4,
		central:      1e8,
		seed:         seed,
	})
	if err != nil {
		return cluster.Config{}, err
	}
	res := core.NewPlanner().Plan(e.sys, e.d)
	return cluster.Config{
		Sys:             e.sys,
		Forest:          res.Forest,
		Demand:          e.d,
		Rounds:          maxInt(o.rounds(), 120),
		EnforceCapacity: true,
		Source:          cluster.UtilWalk{Seed: uint64(seed)},
	}, nil
}

// mustSpec builds a suppression spec with the given default bound.
func mustSpec(eps float64) *predict.Spec {
	s, err := predict.NewSpec(eps)
	if err != nil {
		panic(fmt.Sprintf("bench: suppress spec: %v", err))
	}
	// Deviation-triggered re-syncs re-lock the replicas on every plateau
	// shift, so the periodic cadence is only the lost-marker staleness
	// backstop; doubling the library default halves its byte overhead.
	s.SyncEvery = 2 * predict.DefaultSyncEvery
	return s
}

// countedRun executes one emulation over a byte-counting memory
// transport and enforces the suppression invariants on the result.
func countedRun(cfg cluster.Config) (bytes float64, res cluster.Result) {
	ct := &transport.Meter{Transport: transport.NewMemory(cfg.Sys.NodeIDs())}
	defer func() { _ = ct.Close() }()
	cfg.Transport = ct
	res, err := cluster.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: suppress run: %v", err))
	}
	checkSuppressInvariants(res)
	return float64(ct.Bytes()), res
}

// checkSuppressInvariants panics on any violation of the suppression
// ledger's conservation laws or the dead-band guarantee — the safety
// half of what this experiment measures.
func checkSuppressInvariants(res cluster.Result) {
	if res.ValuesSuppressed > res.ValuesObserved {
		panic(fmt.Sprintf("bench: suppressed %d > observed %d",
			res.ValuesSuppressed, res.ValuesObserved))
	}
	if res.ValuesImputed+res.MarkersLost > res.ValuesSuppressed {
		panic(fmt.Sprintf("bench: imputed %d + lost %d > suppressed %d",
			res.ValuesImputed, res.MarkersLost, res.ValuesSuppressed))
	}
	if res.ImputeBandMax > 1+1e-6 {
		panic(fmt.Sprintf("bench: imputation broke the dead band: ratio %.6f > 1",
			res.ImputeBandMax))
	}
}

// suppCells derives the shared reduction/ratio cells from a baseline
// byte count and a suppressing run.
func suppCells(baseBytes, suppBytes float64, res cluster.Result) (reduction, suppPct float64) {
	if suppBytes > 0 {
		reduction = baseBytes / suppBytes
	}
	if res.ValuesObserved > 0 {
		suppPct = 100 * float64(res.ValuesSuppressed) / float64(res.ValuesObserved)
	}
	return reduction, suppPct
}

// Suppress measures forecast-driven traffic suppression on the Fig. 6a
// deployment: the ε sweep reruns the identical plan with suppression
// off and on, metering wire bytes through the transport, and the
// robustness table re-measures the ε=1% point under message loss, a
// collector crash/resume, and a 4-shard collection tier. The headline
// is REDUCTION_X at ε=1%; BAND_MAX <= 1 must hold on every row
// (BENCH_suppress.json records a run).
func Suppress(o Options) []*metrics.Table {
	cfg, err := suppressEnv(o, o.Seed+130)
	if err != nil {
		panic(err)
	}
	baseBytes, baseRes := countedRun(cfg)

	a := metrics.NewTable(
		"Suppression — wire bytes at accuracy, ε sweep (Fig 6a shape, plateau source)",
		"eps", suppressColumns...)
	for _, eps := range []float64{0.002, 0.005, 0.01, 0.02, 0.05} {
		supp := cfg
		supp.Predict = mustSpec(eps)
		suppBytes, res := countedRun(supp)
		if res.CoveredPairs != baseRes.CoveredPairs {
			panic(fmt.Sprintf("bench: suppression changed coverage at eps=%g: %d vs %d pairs",
				eps, res.CoveredPairs, baseRes.CoveredPairs))
		}
		reduction, suppPct := suppCells(baseBytes, suppBytes, res)
		mustAdd(a, eps, baseBytes/1024, suppBytes/1024, reduction, suppPct,
			res.AvgPercentError, res.ImputeBandMax)
	}

	b := metrics.NewTable(
		"Suppression — robustness at ε=1%: (1) 5% drop + delay, (2) collector crash/resume, (3) 4-shard tier",
		"scenario", suppressChaosColumns...)
	mustAdd(b, 1, suppressChaosPoint(o)...)
	mustAdd(b, 2, suppressCrashPoint(o)...)
	mustAdd(b, 3, suppressShardPoint(o)...)
	return []*metrics.Table{a, b}
}

// suppressChaosPoint re-measures the ε=1% point under probabilistic
// message loss and delay: dropped frames kill their markers, so this
// row exercises the refuse-don't-guess path (MarkersLost > 0) while the
// band invariant must keep holding.
func suppressChaosPoint(o Options) []float64 {
	cfg, err := suppressEnv(o, o.Seed+140)
	if err != nil {
		panic(err)
	}
	cfg.Chaos = &chaos.Config{DropProb: 0.05, DelayProb: 0.05, MaxDelayRounds: 2, Seed: 21}

	baseBytes, _ := countedRun(cfg)
	supp := cfg
	supp.Predict = mustSpec(suppressEps)
	suppBytes, res := countedRun(supp)
	reduction, suppPct := suppCells(baseBytes, suppBytes, res)
	return []float64{reduction, suppPct,
		float64(res.ValuesImputed), float64(res.MarkersLost), res.ImputeBandMax}
}

// suppressCrashRun executes the crash/resume schedule once: the
// collector dies a third of the way in, stays down for 10 rounds, and
// is resumed from its checkpointed model snapshots (epoch-fenced, with
// leaf-side buffering) for the remainder.
func suppressCrashRun(cfg cluster.Config) (bytes float64, res cluster.Result) {
	crashAt := cfg.Rounds / 3
	cfg.Chaos = &chaos.Config{CollectorCrashAt: crashAt, Seed: 23}
	cfg.LeafBuffer = 8
	ct := &transport.Meter{Transport: transport.NewMemory(cfg.Sys.NodeIDs())}
	defer func() { _ = ct.Close() }()
	cfg.Transport = ct

	m, err := cluster.NewMachine(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: suppress crash machine: %v", err))
	}
	defer func() { _ = m.Close() }()
	down := crashAt + 10
	if err := m.StepN(down); err != nil {
		panic(fmt.Sprintf("bench: suppress crash run: %v", err))
	}
	if err := m.ResumeCollector(cluster.ResumeState{Models: m.PredictSnapshots()}); err != nil {
		panic(fmt.Sprintf("bench: suppress resume: %v", err))
	}
	if err := m.StepN(cfg.Rounds - down); err != nil {
		panic(fmt.Sprintf("bench: suppress resume run: %v", err))
	}
	res = m.Result()
	checkSuppressInvariants(res)
	return float64(ct.Bytes()), res
}

// suppressCrashPoint re-measures the ε=1% point across a collector
// crash and resume; the resumed collector's replicas come back gated,
// so imputation pauses until the next sync instead of drifting.
func suppressCrashPoint(o Options) []float64 {
	cfg, err := suppressEnv(o, o.Seed+150)
	if err != nil {
		panic(err)
	}
	baseBytes, _ := suppressCrashRun(cfg)
	supp := cfg
	supp.Predict = mustSpec(suppressEps)
	suppBytes, res := suppressCrashRun(supp)
	if res.ValuesImputed == 0 {
		panic("bench: suppression never imputed across the collector crash")
	}
	reduction, suppPct := suppCells(baseBytes, suppBytes, res)
	return []float64{reduction, suppPct,
		float64(res.ValuesImputed), float64(res.MarkersLost), res.ImputeBandMax}
}

// suppressShardPoint re-measures the ε=1% point on a 4-shard collection
// tier: per-shard collectors keep their own replica halves, and the
// band invariant must survive the partition.
func suppressShardPoint(o Options) []float64 {
	cfg, err := suppressEnv(o, o.Seed+160)
	if err != nil {
		panic(err)
	}
	cfg.Shards = 4

	baseBytes, _ := countedRun(cfg)
	supp := cfg
	supp.Predict = mustSpec(suppressEps)
	suppBytes, res := countedRun(supp)
	if res.ValuesSuppressed == 0 {
		panic("bench: suppression never engaged on the sharded tier")
	}
	reduction, suppPct := suppCells(baseBytes, suppBytes, res)
	return []float64{reduction, suppPct,
		float64(res.ValuesImputed), float64(res.MarkersLost), res.ImputeBandMax}
}
