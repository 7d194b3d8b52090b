package verify_test

import (
	"errors"
	"testing"

	"remo/internal/cluster"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/verify"
)

// twoTreeForest builds a forest of single-attribute trees for attrs 1
// and 2 (structure is irrelevant to the shard checks; only keys are).
func twoTreeForest(t *testing.T) *plan.Forest {
	t.Helper()
	f := plan.NewForest()
	for _, a := range []model.AttrID{1, 2} {
		tr := plan.NewTree(model.NewAttrSet(a))
		if err := tr.AddNode(1, model.Central); err != nil {
			t.Fatal(err)
		}
		f.Add(tr)
	}
	return f
}

func TestShardingHolds(t *testing.T) {
	f := twoTreeForest(t)
	k1 := model.NewAttrSet(1).Key()
	k2 := model.NewAttrSet(2).Key()
	st := verify.ShardState{
		Shards:     3,
		Assignment: map[string]int{k1: 0, k2: 2},
	}
	if err := verify.Sharding(st, f); err != nil {
		t.Fatalf("healthy sharding flagged: %v", err)
	}
	// An orphan booked to a dead shard is conserved state, not an error.
	st.Dead = []int{2}
	st.Pending = []string{k2}
	if err := verify.Sharding(st, f); err != nil {
		t.Fatalf("orphan window flagged: %v", err)
	}
}

func TestShardingViolations(t *testing.T) {
	f := twoTreeForest(t)
	k1 := model.NewAttrSet(1).Key()
	k2 := model.NewAttrSet(2).Key()
	cases := []struct {
		name string
		st   verify.ShardState
	}{
		{"unowned tree", verify.ShardState{
			Shards: 2, Assignment: map[string]int{k1: 0},
		}},
		{"out of range owner", verify.ShardState{
			Shards: 2, Assignment: map[string]int{k1: 0, k2: 5},
		}},
		{"dead owner without orphan entry", verify.ShardState{
			Shards: 2, Assignment: map[string]int{k1: 0, k2: 1}, Dead: []int{1},
		}},
		{"orphan owned by live shard", verify.ShardState{
			Shards: 2, Assignment: map[string]int{k1: 0, k2: 1}, Pending: []string{k2},
		}},
		{"retired tree in assignment", verify.ShardState{
			Shards: 2, Assignment: map[string]int{k1: 0, k2: 1, "ghost": 0},
		}},
		{"no shards", verify.ShardState{
			Shards: 0, Assignment: map[string]int{k1: 0, k2: 0},
		}},
	}
	for _, tc := range cases {
		if err := verify.Sharding(tc.st, f); !errors.Is(err, verify.ErrSharding) {
			t.Errorf("%s: got %v, want ErrSharding", tc.name, err)
		}
	}
}

func TestShardUnion(t *testing.T) {
	merged := cluster.Result{DemandedPairs: 10, CoveredPairs: 8, ValuesDelivered: 120}
	partials := []cluster.Result{
		{DemandedPairs: 6, CoveredPairs: 5, ValuesDelivered: 70},
		{DemandedPairs: 4, CoveredPairs: 3, ValuesDelivered: 50},
	}
	if err := verify.ShardUnion(merged, partials); err != nil {
		t.Fatalf("exact union flagged: %v", err)
	}
	// A lost pair in any counter breaks the union.
	for _, mutate := range []func(*cluster.Result){
		func(r *cluster.Result) { r.DemandedPairs-- },
		func(r *cluster.Result) { r.CoveredPairs++ },
		func(r *cluster.Result) { r.ValuesDelivered -= 7 },
	} {
		bad := merged
		mutate(&bad)
		if err := verify.ShardUnion(bad, partials); !errors.Is(err, verify.ErrSharding) {
			t.Errorf("broken union not flagged: %v", err)
		}
	}
	if err := verify.ShardUnion(merged, nil); !errors.Is(err, verify.ErrSharding) {
		t.Error("empty partials accepted")
	}
}

func TestResultShardCounters(t *testing.T) {
	base := cluster.Result{
		Shards: 4, ShardsDown: 1, OrphanedTrees: 3, TreesRedispatched: 3,
		LeaderElections: 1, ShardWatermarks: []int{5, 9, 9, -1}, Rounds: 10,
	}
	if err := verify.ResultShardCounters(base); err != nil {
		t.Fatalf("consistent shard counters flagged: %v", err)
	}
	mutations := []func(*cluster.Result){
		func(r *cluster.Result) { r.ShardsDown = 5 },
		func(r *cluster.Result) { r.TreesRedispatched = 4 }, // > orphaned
		func(r *cluster.Result) { r.LeaderElections = -1 },
		func(r *cluster.Result) { r.ShardWatermarks = []int{5, 9, 9} },     // wrong length
		func(r *cluster.Result) { r.ShardWatermarks = []int{5, 9, 9, 10} }, // >= rounds
		func(r *cluster.Result) { r.ShardWatermarks = []int{5, 9, 9, -2} },
		func(r *cluster.Result) { r.Shards, r.ShardsDown, r.ShardWatermarks = 0, 0, nil },
	}
	for i, mutate := range mutations {
		bad := base
		bad.ShardWatermarks = append([]int(nil), base.ShardWatermarks...)
		mutate(&bad)
		if err := verify.ResultShardCounters(bad); err == nil {
			t.Errorf("mutation %d not flagged", i)
		}
	}
	// A lone collector is one live shard; a result without a shard is
	// not one the tier can produce.
	lone := cluster.Result{Shards: 1, ShardWatermarks: []int{9}, Rounds: 10}
	if err := verify.ResultShardCounters(lone); err != nil {
		t.Fatalf("lone collector's result flagged: %v", err)
	}
	if err := verify.ResultShardCounters(cluster.Result{}); err == nil {
		t.Error("a result without shards not flagged")
	}
}
