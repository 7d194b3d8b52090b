package cluster

import (
	"runtime"
	"testing"

	"remo/internal/core"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/task"
)

func TestMachineStepMatchesRun(t *testing.T) {
	sys, d, forest := deployEnv(t, 10, 2, 1e5)
	cfg := Config{
		Sys: sys, Forest: forest, Demand: d,
		Rounds: 15, EnforceCapacity: true, Source: BurstyWalk{Seed: 4},
	}
	viaRun, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(15); err != nil {
		t.Fatal(err)
	}
	viaMachine := m.Result()
	if viaRun.ValuesDelivered != viaMachine.ValuesDelivered ||
		viaRun.CoveredPairs != viaMachine.CoveredPairs ||
		viaRun.AvgPercentError != viaMachine.AvgPercentError {
		t.Fatalf("Run %+v != Machine %+v", viaRun, viaMachine)
	}
}

func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	sys, d, forest := deployEnv(t, 4, 1, 1e5)
	m, err := NewMachine(Config{Sys: sys, Forest: forest, Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err == nil {
		t.Fatal("Step on closed machine succeeded")
	}
}

func TestMachineInstallRewiresAndPreservesCounters(t *testing.T) {
	sys, d, forest := deployEnv(t, 8, 1, 1e5)
	m, err := NewMachine(Config{Sys: sys, Forest: forest, Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(5); err != nil {
		t.Fatal(err)
	}
	sentBefore := m.Result().MessagesSent
	if sentBefore == 0 {
		t.Fatal("no traffic before install")
	}

	// Grow the demand with a second attribute and install the new plan.
	nd := d.Clone()
	for _, id := range sys.NodeIDs() {
		nd.Set(id, 2, 1)
	}
	res := core.NewPlanner().Plan(sys, nd)
	m.InstallDiff(res.Forest, nd)
	if err := m.StepN(5); err != nil {
		t.Fatal(err)
	}
	out := m.Result()
	if out.MessagesSent <= sentBefore {
		t.Fatalf("sent counter lost across install: %d <= %d", out.MessagesSent, sentBefore)
	}
	if out.DemandedPairs != nd.PairCount() {
		t.Fatalf("demanded = %d, want %d", out.DemandedPairs, nd.PairCount())
	}
	// New attribute's pairs were collected post-install.
	covered := 0
	for _, id := range sys.NodeIDs() {
		if _, ok := findView(m, model.Pair{Node: id, Attr: 2}); ok {
			covered++
		}
	}
	if covered == 0 {
		t.Fatal("no new-attribute pairs delivered after install")
	}
}

// findView peeks into the machine's collector views for tests.
func findView(m *Machine, p model.Pair) (float64, bool) {
	for _, c := range collectors(m) {
		if v, ok := c.lookupView(p); ok {
			return v.Value, true
		}
	}
	return 0, false
}

func TestMachineInstallShrinkingDemand(t *testing.T) {
	sys, d, forest := deployEnv(t, 6, 2, 1e5)
	m, err := NewMachine(Config{Sys: sys, Forest: forest, Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(4); err != nil {
		t.Fatal(err)
	}

	// Drop attr 2 entirely; rebuild a single-attribute plan.
	nd := task.NewDemand()
	for _, id := range sys.NodeIDs() {
		nd.Set(id, 1, 1)
	}
	res := core.NewPlanner().Plan(sys, nd)
	m.InstallDiff(res.Forest, nd)
	if err := m.StepN(4); err != nil {
		t.Fatal(err)
	}
	out := m.Result()
	if out.DemandedPairs != 6 {
		t.Fatalf("demanded = %d, want 6", out.DemandedPairs)
	}
	if out.CoveredPairs != 6 {
		t.Fatalf("covered = %d, want 6", out.CoveredPairs)
	}
}

func TestMachineInstallEmptyForest(t *testing.T) {
	sys, d, forest := deployEnv(t, 4, 1, 1e5)
	m, err := NewMachine(Config{Sys: sys, Forest: forest, Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(2); err != nil {
		t.Fatal(err)
	}
	m.InstallDiff(plan.NewForest(), task.NewDemand())
	if err := m.StepN(2); err != nil {
		t.Fatal(err)
	}
	out := m.Result()
	if out.DemandedPairs != 0 {
		t.Fatalf("demanded = %d after emptying", out.DemandedPairs)
	}
}

// resultBytes is the fewest heap bytes one Machine.Result call allocated,
// averaged over a batch of calls, across a few batches.
func resultBytes(m *Machine) uint64 {
	const calls = 100
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			_ = m.Result()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return best
}

// TestResultSizeIndependentOfUptime proves a report does not grow with
// the rounds a session ran, for a lone collector and a sharded tier.
func TestResultSizeIndependentOfUptime(t *testing.T) {
	sys, d, forest := shardEnv(t, 12, 6)
	for _, shards := range []int{0, 4} {
		m, err := NewMachine(shardConfig(sys, d, forest, shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.StepN(100); err != nil {
			t.Fatal(err)
		}
		early := resultBytes(m)
		if err := m.StepN(9900); err != nil {
			t.Fatal(err)
		}
		late := resultBytes(m)
		_ = m.Close()
		if early != late {
			t.Fatalf("shards=%d: Result allocates %d B after 100 rounds, %d B after 10 000", shards, early, late)
		}
	}
}
