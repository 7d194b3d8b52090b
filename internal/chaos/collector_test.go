package chaos

import (
	"testing"

	"remo/internal/model"
)

func TestCollectorCrashAtFiresOnEdge(t *testing.T) {
	c := &Config{CollectorCrashAt: 7}
	for round := 0; round < 20; round++ {
		want := round == 7
		if got := c.CollectorCrash(round); got != want {
			t.Fatalf("round %d: crash = %v, want %v", round, got, want)
		}
	}
	var nilCfg *Config
	if nilCfg.CollectorCrash(7) {
		t.Fatal("nil config crashed the collector")
	}
	if (&Config{}).CollectorCrash(0) {
		t.Fatal("zero config crashed the collector at round 0")
	}
}

func TestCrashWindowsFlapSchedule(t *testing.T) {
	n := model.NodeID(3)
	c := &Config{CrashWindows: map[model.NodeID][]Window{
		n: {{From: 5, To: 8}, {From: 12, To: 14}},
	}}
	downs := map[int]bool{5: true, 6: true, 7: true, 12: true, 13: true}
	for round := 0; round < 20; round++ {
		if got := c.Crashed(n, round); got != downs[round] {
			t.Fatalf("round %d: crashed = %v, want %v", round, got, downs[round])
		}
	}
	if c.Crashed(model.NodeID(4), 6) {
		t.Fatal("window crashed an unscheduled node")
	}
}

func TestShardCrashAtFiresOnEdge(t *testing.T) {
	cfg := &Config{ShardCrashAt: map[int]int{1: 5, 3: 9}}
	for r := 0; r < 12; r++ {
		want1 := r == 5
		want3 := r == 9
		if got := cfg.ShardCrash(1, r); got != want1 {
			t.Fatalf("ShardCrash(1, %d) = %v, want %v", r, got, want1)
		}
		if got := cfg.ShardCrash(3, r); got != want3 {
			t.Fatalf("ShardCrash(3, %d) = %v, want %v", r, got, want3)
		}
		if cfg.ShardCrash(0, r) || cfg.ShardCrash(2, r) {
			t.Fatalf("unscheduled shard crashed at round %d", r)
		}
	}
	var nilCfg *Config
	if nilCfg.ShardCrash(1, 5) {
		t.Fatal("nil config must inject nothing")
	}
}
