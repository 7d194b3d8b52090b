package cluster

import (
	"testing"

	"remo/internal/agg"
	"remo/internal/chaos"
	"remo/internal/model"
	"remo/internal/predict"
	"remo/internal/transport"
)

const bandSlack = 1 + 1e-9

// predictSpec builds a validated suppression spec for tests.
func predictSpec(t *testing.T, eps float64) *predict.Spec {
	t.Helper()
	sp, err := predict.NewSpec(eps)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// checkSuppression asserts the conservation and band invariants every
// suppressing session must satisfy.
func checkSuppression(t *testing.T, res Result) {
	t.Helper()
	if res.ValuesSuppressed > res.ValuesObserved {
		t.Fatalf("suppressed %d > observed %d", res.ValuesSuppressed, res.ValuesObserved)
	}
	if res.ValuesImputed+res.MarkersLost > res.ValuesSuppressed {
		t.Fatalf("imputed %d + lost %d > suppressed %d",
			res.ValuesImputed, res.MarkersLost, res.ValuesSuppressed)
	}
	if res.ImputeBandMax > bandSlack {
		t.Fatalf("imputation broke the dead band: max ratio %.6f > 1", res.ImputeBandMax)
	}
}

func TestSuppressionLockstep(t *testing.T) {
	sys, d, forest := deployEnv(t, 12, 3, 1e5)
	res, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 120, EnforceCapacity: true,
		Source:  UtilWalk{Seed: 3},
		Predict: predictSpec(t, 0.01),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSuppression(t, res)
	if res.ValuesObserved == 0 || res.ValuesSuppressed == 0 || res.ValuesImputed == 0 {
		t.Fatalf("suppression never engaged: %+v", res)
	}
	// Plateau utilization under Holt at a 1% band should suppress the
	// overwhelming majority of observations.
	if ratio := float64(res.ValuesSuppressed) / float64(res.ValuesObserved); ratio < 0.5 {
		t.Fatalf("suppressed only %.0f%% of observations on a plateau workload", 100*ratio)
	}
	// A healthy run loses markers only to end-of-session in-flight tails.
	if res.MarkersLost > res.ValuesSuppressed/10 {
		t.Fatalf("lost %d of %d markers without chaos", res.MarkersLost, res.ValuesSuppressed)
	}
	// Imputed views are within band of truth, so accuracy must not
	// collapse relative to full transmission.
	if res.AvgPercentError > 10 {
		t.Fatalf("error %.2f%% too high with 1%% dead band", res.AvgPercentError)
	}
}

func TestSuppressionDisabledLeavesCountersZero(t *testing.T) {
	sys, d, forest := deployEnv(t, 10, 2, 1e5)
	res, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 30, EnforceCapacity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValuesObserved != 0 || res.ValuesSuppressed != 0 || res.ValuesImputed != 0 ||
		res.ModelSyncs != 0 || res.MarkersLost != 0 || res.ImputeBandMax != 0 {
		t.Fatalf("suppression counters nonzero with Predict off: %+v", res)
	}
}

func TestSuppressionDeterministic(t *testing.T) {
	sys, d, forest := deployEnv(t, 10, 2, 1e5)
	run := func() Result {
		res, err := Run(Config{
			Sys: sys, Forest: forest, Demand: d,
			Rounds: 60, EnforceCapacity: true,
			Source:  UtilWalk{Seed: 11},
			Predict: predictSpec(t, 0.02),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ValuesSuppressed != b.ValuesSuppressed || a.ValuesImputed != b.ValuesImputed ||
		a.ModelSyncs != b.ModelSyncs || a.MarkersLost != b.MarkersLost ||
		a.ImputeBandMax != b.ImputeBandMax {
		t.Fatalf("nondeterministic suppression:\n%+v\n%+v", a, b)
	}
}

func TestSuppressionReducesWireBytes(t *testing.T) {
	sys, d, forest := deployEnv(t, 24, 6, 1e5)
	run := func(sp *predict.Spec) (Result, int) {
		ct := &transport.Meter{Transport: transport.NewMemory(sys.NodeIDs())}
		res, err := Run(Config{
			Sys: sys, Forest: forest, Demand: d,
			Rounds: 120, EnforceCapacity: true,
			Source:    UtilWalk{Seed: 5},
			Transport: ct,
			Predict:   sp,
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = ct.Transport.Close()
		return res, int(ct.Bytes())
	}
	_, baseline := run(nil)
	res, suppressed := run(predictSpec(t, 0.01))
	checkSuppression(t, res)
	if suppressed >= baseline {
		t.Fatalf("suppression did not reduce bytes: %d >= %d", suppressed, baseline)
	}
	if ratio := float64(baseline) / float64(suppressed); ratio < 2 {
		t.Fatalf("byte reduction %.2fx, want >= 2x on a plateau workload", ratio)
	}
}

func TestSuppressionSurvivesChaosDrops(t *testing.T) {
	sys, d, forest := deployEnv(t, 12, 3, 1e5)
	res, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 150, EnforceCapacity: true,
		Source:  UtilWalk{Seed: 9},
		Predict: predictSpec(t, 0.01),
		Chaos:   &chaos.Config{DropProb: 1.0 / 7, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSuppression(t, res)
	if res.MarkersLost == 0 {
		t.Fatal("link loss must cost some markers")
	}
	if res.ValuesImputed == 0 {
		t.Fatal("suppression must keep imputing between loss episodes")
	}
}

func TestSuppressionSurvivesInstall(t *testing.T) {
	sys, d, forest := deployEnv(t, 12, 3, 1e5)
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 200, EnforceCapacity: true,
		Source:  UtilWalk{Seed: 4},
		Predict: predictSpec(t, 0.01),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(60); err != nil {
		t.Fatal(err)
	}
	mid := m.Result()
	// Re-install the same plan: epoch bumps, collector replicas wipe,
	// leaves force a sync — imputation must resume, in band.
	m.InstallDiff(forest, d)
	if err := m.StepN(60); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	checkSuppression(t, res)
	if res.ValuesImputed <= mid.ValuesImputed {
		t.Fatalf("imputation did not resume after install: %d -> %d",
			mid.ValuesImputed, res.ValuesImputed)
	}
	if res.ModelSyncs <= mid.ModelSyncs {
		t.Fatalf("install must force re-syncs: %d -> %d", mid.ModelSyncs, res.ModelSyncs)
	}
}

func TestSuppressionColdResumeSeedsBothEnds(t *testing.T) {
	sys, d, forest := deployEnv(t, 10, 2, 1e5)
	sp := predictSpec(t, 0.01)
	// First session: warm the replicas, snapshot them.
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 200, EnforceCapacity: true,
		Source: UtilWalk{Seed: 8}, Predict: sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StepN(50); err != nil {
		t.Fatal(err)
	}
	models := m.PredictSnapshots()
	_ = m.Close()
	if len(models) == 0 {
		t.Fatal("no replicas materialized to snapshot")
	}

	// Cold resume: both ends seed from the same snapshots and must be in
	// lockstep immediately — imputations before the first periodic sync
	// window closes prove the seed took.
	m2, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 200, EnforceCapacity: true,
		Source: UtilWalk{Seed: 8}, Predict: sp,
		SeedModels: models,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m2.Close() }()
	if err := m2.StepN(predict.DefaultSyncEvery); err != nil {
		t.Fatal(err)
	}
	res := m2.Result()
	checkSuppression(t, res)
	if res.ValuesImputed == 0 {
		t.Fatal("seeded replicas must impute before the first sync cycle completes")
	}
}

func TestSuppressionCollectorCrashResume(t *testing.T) {
	sys, d, forest := deployEnv(t, 10, 2, 1e5)
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 300, EnforceCapacity: true,
		Source: UtilWalk{Seed: 6}, Predict: predictSpec(t, 0.01),
		Chaos:      &chaos.Config{CollectorCrashAt: 40},
		LeafBuffer: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(60); err != nil {
		t.Fatal(err)
	}
	if !m.CollectorDown() {
		t.Fatal("collector should be down")
	}
	preResume := m.Result()
	if err := m.ResumeCollector(ResumeState{Models: m.PredictSnapshots()}); err != nil {
		t.Fatal(err)
	}
	if err := m.StepN(2 * predict.DefaultSyncEvery); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	checkSuppression(t, res)
	if res.ValuesImputed <= preResume.ValuesImputed {
		t.Fatalf("imputation did not resume after collector restart: %d -> %d",
			preResume.ValuesImputed, res.ValuesImputed)
	}
}

func TestSuppressionSharded(t *testing.T) {
	sys, d, forest := deployEnv(t, 16, 3, 1e5)
	res, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 120, EnforceCapacity: true,
		Source: UtilWalk{Seed: 2}, Predict: predictSpec(t, 0.01),
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSuppression(t, res)
	if res.Shards != 3 {
		t.Fatalf("Shards = %d, want 3", res.Shards)
	}
	if res.ValuesImputed == 0 {
		t.Fatal("sharded tier must impute too")
	}
}

func TestSuppressionExemptsAliasesAndAggregates(t *testing.T) {
	// Attribute 2 is an alias of 1; attribute 3 aggregates. Only the
	// holistic unaliased attributes may enter the suppression counters.
	sys, d, forest := deployEnv(t, 8, 3, 1e5)
	resolve := func(a model.AttrID) model.AttrID {
		if a == 2 {
			return 1
		}
		return a
	}
	spec := agg.NewSpec()
	spec.SetKind(3, agg.Sum)
	res, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 60, EnforceCapacity: true,
		Source: UtilWalk{Seed: 14}, Predict: predictSpec(t, 0.01),
		Resolve: resolve,
		Spec:    spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSuppression(t, res)
	// 8 nodes × 1 eligible attr × 60 rounds is the observation ceiling.
	if res.ValuesObserved > 8*60 {
		t.Fatalf("observed %d slots, aliased/aggregated attrs must be exempt", res.ValuesObserved)
	}
	if res.ValuesObserved == 0 {
		t.Fatal("the unaliased holistic attribute must still be eligible")
	}
}

func TestUtilWalkShape(t *testing.T) {
	w := UtilWalk{Seed: 1}
	// Deterministic.
	if w.Value(3, 2, 17) != w.Value(3, 2, 17) {
		t.Fatal("UtilWalk must be a pure function")
	}
	// Within a plateau the series moves slowly: successive deltas stay a
	// small fraction of the level.
	for r := 1; r < 25; r++ {
		prev, cur := w.Value(3, 2, r-1), w.Value(3, 2, r)
		if d := cur - prev; d > 0.01*prev || d < -0.01*prev {
			t.Fatalf("round %d: plateau moved %.3f from %.3f", r, d, prev)
		}
	}
	// Distinct pairs decorrelate.
	if w.Value(1, 1, 0) == w.Value(2, 1, 0) && w.Value(1, 1, 50) == w.Value(2, 1, 50) {
		t.Fatal("pairs should decorrelate")
	}
}
