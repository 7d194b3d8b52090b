package cluster

import (
	"testing"

	"remo/internal/chaos"
	"remo/internal/detect"
	"remo/internal/model"
)

func TestChaosMachineDetectsCrash(t *testing.T) {
	sys, d, forest := deployEnv(t, 12, 3, 1e5)
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 20, EnforceCapacity: true,
		Chaos:  &chaos.Config{CrashWindows: map[model.NodeID][]chaos.Window{2: {{From: 3, To: 1 << 30}}}},
		Detect: &detect.Config{SuspicionRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	if err := m.StepN(10); err != nil {
		t.Fatal(err)
	}
	vs := m.TakeVerdicts()
	if len(vs) != 1 {
		t.Fatalf("verdicts = %+v, want exactly one", vs)
	}
	v := vs[0]
	if v.Node != 2 || v.Recovered {
		t.Fatalf("verdict = %+v, want death of node 2", v)
	}
	// Crash at round 3 → last beat round 2 → declared when round-2 >= 2.
	if v.LastHeard != 2 || v.DeclaredAt != 4 {
		t.Fatalf("verdict = %+v, want LastHeard 2, DeclaredAt 4", v)
	}
	// Queue drained: a second take is empty.
	if vs := m.TakeVerdicts(); len(vs) != 0 {
		t.Fatalf("second TakeVerdicts = %+v", vs)
	}
	if m.Detector().Alive(2) {
		t.Fatal("node 2 still alive in detector view")
	}
}

func TestChaosMachineSeesRecovery(t *testing.T) {
	sys, d, forest := deployEnv(t, 12, 3, 1e5)
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 20, EnforceCapacity: true,
		Chaos: &chaos.Config{
			CrashWindows: map[model.NodeID][]chaos.Window{2: {{From: 3, To: 8}}},
		},
		Detect: &detect.Config{SuspicionRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	if err := m.StepN(12); err != nil {
		t.Fatal(err)
	}
	vs := m.TakeVerdicts()
	if len(vs) != 2 {
		t.Fatalf("verdicts = %+v, want death then recovery", vs)
	}
	if vs[0].Node != 2 || vs[0].Recovered {
		t.Fatalf("first verdict = %+v, want death", vs[0])
	}
	if vs[1].Node != 2 || !vs[1].Recovered {
		t.Fatalf("second verdict = %+v, want recovery", vs[1])
	}
	// Recovery evidence is the round-8 heartbeat, seen at round 8.
	if vs[1].DeclaredAt != 8 {
		t.Fatalf("recovery at round %d, want 8", vs[1].DeclaredAt)
	}
	if !m.Detector().Alive(2) {
		t.Fatal("node 2 still dead after recovery")
	}
}

func TestChaosDropProbReducesDeliveries(t *testing.T) {
	sys, d, forest := deployEnv(t, 12, 3, 1e5)
	run := func(c *chaos.Config) Result {
		res, err := Run(Config{
			Sys: sys, Forest: forest, Demand: d,
			Rounds: 30, EnforceCapacity: true, Chaos: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	lossy := run(&chaos.Config{DropProb: 0.3, Seed: 7})
	if lossy.ValuesDelivered >= clean.ValuesDelivered {
		t.Fatalf("30%% loss delivered %d values, clean run %d",
			lossy.ValuesDelivered, clean.ValuesDelivered)
	}
	if lossy.MessagesDropped == 0 {
		t.Fatal("lossy run recorded no drops")
	}
	// Determinism: the same seed reproduces the same outcome.
	again := run(&chaos.Config{DropProb: 0.3, Seed: 7})
	if again.ValuesDelivered != lossy.ValuesDelivered ||
		again.MessagesDropped != lossy.MessagesDropped {
		t.Fatalf("chaos run not reproducible: %+v vs %+v", again, lossy)
	}
}

func TestChaosDelayIncreasesStaleness(t *testing.T) {
	sys, d, forest := deployEnv(t, 12, 3, 1e5)
	run := func(c *chaos.Config) Result {
		res, err := Run(Config{
			Sys: sys, Forest: forest, Demand: d,
			Rounds: 30, EnforceCapacity: true, Chaos: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	slow := run(&chaos.Config{DelayProb: 0.8, MaxDelayRounds: 3, Seed: 11})
	if slow.AvgStaleness <= clean.AvgStaleness {
		t.Fatalf("delayed run staleness %.3f not above clean %.3f",
			slow.AvgStaleness, clean.AvgStaleness)
	}
	// Delayed messages are late, not lost: coverage stays complete.
	if slow.CoveredPairs != slow.DemandedPairs {
		t.Fatalf("delay lost coverage: %d of %d", slow.CoveredPairs, slow.DemandedPairs)
	}
}

func TestChaosHeartbeatsAreCostExempt(t *testing.T) {
	sys, d, forest := deployEnv(t, 12, 3, 1e5)
	base, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 20, EnforceCapacity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	detecting, err := Run(Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 20, EnforceCapacity: true,
		Detect: &detect.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Arming detection must not perturb the measured deployment at all:
	// beats bypass budgets, delivery counters and the collector's views.
	if base.ValuesDelivered != detecting.ValuesDelivered ||
		base.MessagesSent != detecting.MessagesSent ||
		base.MessagesDropped != detecting.MessagesDropped ||
		base.PercentCollected != detecting.PercentCollected ||
		base.AvgPercentError != detecting.AvgPercentError {
		t.Fatalf("detection changed results:\nbase     %+v\ndetecting %+v", base, detecting)
	}
}
