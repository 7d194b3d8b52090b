package chaos

import (
	"testing"

	"remo/internal/model"
)

func TestChaosNilConfigIsInert(t *testing.T) {
	var c *Config
	if c.Crashed(1, 5) || c.JustCrashed(1, 5) {
		t.Fatal("nil config crashed a node")
	}
	if c.Drop(1, 2, 3, 4) {
		t.Fatal("nil config dropped a message")
	}
	if c.Delay(1, 2, 3, 4) != 0 {
		t.Fatal("nil config delayed a message")
	}
}

func TestChaosCrashRecoverSchedule(t *testing.T) {
	c := &Config{CrashWindows: map[model.NodeID][]Window{
		1: {{From: 5, To: 8}},
		2: {{From: 3, To: 1 << 30}}, // a crash that never recovers
	}}
	if c.Crashed(1, 4) {
		t.Fatal("node 1 down before its crash round")
	}
	for r := 5; r < 8; r++ {
		if !c.Crashed(1, r) {
			t.Fatalf("node 1 up at round %d", r)
		}
	}
	if c.Crashed(1, 8) {
		t.Fatal("node 1 down after recovery")
	}
	if !c.JustCrashed(1, 5) || c.JustCrashed(1, 6) {
		t.Fatal("JustCrashed edge wrong")
	}
	if c.Crashed(2, 2) || !c.Crashed(2, 10) {
		t.Fatal("node 2's open-ended crash window misplaced")
	}
	if c.Crashed(3, 0) {
		t.Fatal("unscheduled node crashed")
	}
}

func TestChaosDropProbDeterministicAndCalibrated(t *testing.T) {
	c := &Config{DropProb: 0.2, Seed: 7}
	dropped := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		first := c.Drop(1, 2, i, 1)
		if second := c.Drop(1, 2, i, 1); second != first {
			t.Fatal("drop decision not deterministic")
		}
		if first {
			dropped++
		}
	}
	rate := float64(dropped) / trials
	if rate < 0.17 || rate > 0.23 {
		t.Fatalf("empirical drop rate %.3f, want ~0.2", rate)
	}
}

func TestChaosDelayBounds(t *testing.T) {
	c := &Config{DelayProb: 1, MaxDelayRounds: 3, Seed: 11}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		d := c.Delay(1, 2, i, 1)
		if d < 1 || d > 3 {
			t.Fatalf("delay %d out of [1,3]", d)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("delay never varied: %v", seen)
	}
	one := &Config{DelayProb: 1}
	if d := one.Delay(1, 2, 0, 1); d != 1 {
		t.Fatalf("default delay = %d, want 1", d)
	}
}
