package cluster

import (
	"reflect"
	"testing"

	"remo/internal/chaos"
	"remo/internal/cost"
	"remo/internal/detect"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/store"
	"remo/internal/task"
	"remo/internal/trace"
	"remo/internal/transport"
)

// shardEnv builds a hand-made forest of nAttrs single-attribute star
// trees over n nodes, so sharding tests control the tree count exactly
// (the planner tends to merge everything into one tree).
func shardEnv(t *testing.T, n, nAttrs int) (*model.System, *task.Demand, *plan.Forest) {
	t.Helper()
	attrs := make([]model.AttrID, nAttrs)
	for i := range attrs {
		attrs[i] = model.AttrID(i + 1)
	}
	nodes := make([]model.Node, n)
	d := task.NewDemand()
	for i := range nodes {
		id := model.NodeID(i + 1)
		nodes[i] = model.Node{ID: id, Capacity: 1e5, Attrs: attrs}
		for _, a := range attrs {
			d.Set(id, a, 1)
		}
	}
	sys, err := model.NewSystem(1e6, cost.Model{PerMessage: 10, PerValue: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	forest := plan.NewForest()
	for i, a := range attrs {
		tr := plan.NewTree(model.NewAttrSet(a))
		root := model.NodeID(i%n + 1)
		if err := tr.AddNode(root, model.Central); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			id := model.NodeID(j + 1)
			if id == root {
				continue
			}
			if err := tr.AddNode(id, root); err != nil {
				t.Fatal(err)
			}
		}
		forest.Add(tr)
	}
	if err := forest.Validate(d, sys, nil); err != nil {
		t.Fatal(err)
	}
	return sys, d, forest
}

// shardConfig is the baseline sharded session config for these tests.
func shardConfig(sys *model.System, d *task.Demand, forest *plan.Forest, shards int) Config {
	return Config{
		Sys: sys, Forest: forest, Demand: d,
		Shards: shards,
		Detect: &detect.Config{},
		Source: BurstyWalk{Seed: 11},
	}
}

// withoutShardFields blanks the fields that describe the tier's shards.
func withoutShardFields(r Result) Result {
	r.Shards, r.ShardsDown, r.OrphanedTrees, r.TreesRedispatched, r.LeaderElections = 0, 0, 0, 0, 0
	r.ShardWatermarks = nil
	return r
}

// collectors lists every collector of the machine's tier, the residual
// one last.
func collectors(m *Machine) []*collector {
	return append(m.tier.colls[:m.tier.n:m.tier.n], m.tier.resid)
}

// TestShardedMatchesSingleCollectorChaosFree proves a fault-free 4-shard
// tier reports bit for bit what one collector does, error and staleness
// included: a round's score is an exact tally, so how the tier splits
// the pairs cannot change its sum.
func TestShardedMatchesSingleCollectorChaosFree(t *testing.T) {
	sys, d, forest := shardEnv(t, 12, 6)
	rounds := 20

	run := func(shards int) Result {
		cfg := shardConfig(sys, d, forest, shards)
		cfg.Rounds = rounds
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single, sharded := run(0), run(4)

	if sharded.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", sharded.Shards)
	}
	if got, want := withoutShardFields(sharded), withoutShardFields(single); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded tier diverged from one collector:\ngot  %+v\nwant %+v", got, want)
	}
	if sharded.CoveredPairs != sharded.DemandedPairs {
		t.Fatalf("sharded session incomplete: %d of %d", sharded.CoveredPairs, sharded.DemandedPairs)
	}
	if sharded.OrphanedTrees != 0 || sharded.TreesRedispatched != 0 || sharded.ShardsDown != 0 {
		t.Fatalf("chaos-free session reports shard churn: %+v", sharded)
	}
	for s, w := range sharded.ShardWatermarks {
		if w != rounds-1 {
			t.Fatalf("shard %d watermark %d, want %d", s, w, rounds-1)
		}
	}
}

// TestShardedMatchesSingleCollectorEquivCases runs every fault-free
// seeded workload at Shards: 4 and at Shards: 0 and asks for the same
// Result outside the shard fields. Each shard collector charges its own
// CentralCapacity, so a case qualifies only while the lone collector's
// budget never binds.
func TestShardedMatchesSingleCollectorEquivCases(t *testing.T) {
	for _, ec := range equivCases() {
		if ec.chaos != nil || ec.detect {
			continue
		}
		t.Run(ec.name, func(t *testing.T) {
			base := ec.config(t)
			m, err := NewMachine(base)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = m.Close() }()
			if err := m.StepN(ec.rounds); err != nil {
				t.Fatal(err)
			}
			for _, c := range collectors(m) {
				if c.centralDrops != 0 {
					t.Fatalf("the collector budget binds (%d frames dropped): the case cannot compare", c.centralDrops)
				}
			}
			single := m.Result()

			cfg := base
			cfg.Shards = 4
			sharded, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := withoutShardFields(sharded), withoutShardFields(single); !reflect.DeepEqual(got, want) {
				t.Fatalf("sharded tier diverged from one collector:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestShardCrashOrphansRedispatchExactlyOnce(t *testing.T) {
	sys, d, forest := shardEnv(t, 12, 8)
	rec := trace.NewRecorder(8192)
	cfg := shardConfig(sys, d, forest, 4)
	cfg.LeafBuffer = 32
	cfg.Chaos = &chaos.Config{ShardCrashAt: map[int]int{1: 6}}
	cfg.Trace = rec
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	victimTrees := 0
	for _, s := range m.ShardAssignment() {
		if s == 1 {
			victimTrees++
		}
	}
	if victimTrees == 0 {
		t.Fatal("shard 1 owns no trees; workload too small")
	}

	// Crash at 6, suspicion window 3 → declared at 8, re-dispatched the
	// same round (leader 0 is alive). Run past it.
	if err := m.StepN(14); err != nil {
		t.Fatal(err)
	}
	if !m.ShardDown(1) {
		t.Fatal("shard 1 not down after its crash round")
	}
	res := m.Result()
	if res.OrphanedTrees != victimTrees {
		t.Fatalf("orphaned %d trees, want %d", res.OrphanedTrees, victimTrees)
	}
	if res.TreesRedispatched != victimTrees {
		t.Fatalf("re-dispatched %d trees, want %d", res.TreesRedispatched, victimTrees)
	}
	if got := len(m.PendingOrphans()); got != 0 {
		t.Fatalf("%d orphans still pending", got)
	}
	// Exactly one re-dispatch trace event per orphaned tree.
	counts := rec.Counts()
	if counts[trace.Orphan] != victimTrees || counts[trace.Redispatch] != victimTrees {
		t.Fatalf("orphan events = %d, redispatch events = %d, want %d each",
			counts[trace.Orphan], counts[trace.Redispatch], victimTrees)
	}
	perTree := map[string]int{}
	for _, e := range rec.Events() {
		if e.Kind == trace.Redispatch {
			perTree[e.TreeKey]++
			if e.Node != 1 {
				t.Fatalf("re-dispatch sourced from shard %d, want dead shard 1", e.Node)
			}
		}
	}
	for k, c := range perTree {
		if c != 1 {
			t.Fatalf("tree %s re-dispatched %d times", k, c)
		}
	}
	// The moved trees must not be owned by the dead shard anymore.
	for k, s := range m.ShardAssignment() {
		if s == 1 {
			t.Fatalf("tree %s still owned by dead shard", k)
		}
	}

	// Resume the shard from an (empty) journal: it rejoins, heartbeats,
	// and the dispatcher rebalances trees back onto it.
	epochBefore := m.Epoch()
	if err := m.ResumeShard(1, ResumeState{Epoch: epochBefore, Repo: store.New(0)}); err != nil {
		t.Fatal(err)
	}
	if m.ShardDown(1) {
		t.Fatal("shard still down after resume")
	}
	if m.Epoch() <= epochBefore {
		t.Fatalf("resume did not advance the epoch: %d", m.Epoch())
	}
	if err := m.StepN(10); err != nil {
		t.Fatal(err)
	}
	back := 0
	for _, s := range m.ShardAssignment() {
		if s == 1 {
			back++
		}
	}
	if back == 0 {
		t.Fatal("no trees rebalanced back onto the resumed shard")
	}
	final := m.Result()
	if final.CoveredPairs != final.DemandedPairs {
		t.Fatalf("post-repair coverage %d of %d", final.CoveredPairs, final.DemandedPairs)
	}
	if final.ShardsDown != 0 {
		t.Fatalf("ShardsDown = %d after resume", final.ShardsDown)
	}
}

func TestShardCrashDegradesNotBlocks(t *testing.T) {
	sys, d, forest := shardEnv(t, 10, 6)
	cfg := shardConfig(sys, d, forest, 3)
	cfg.Chaos = &chaos.Config{ShardCrashAt: map[int]int{2: 5}}
	cfg.Rounds = 16
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(16); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if res.Rounds != 16 {
		t.Fatalf("rounds blocked: %d rounds counted over 16", res.Rounds)
	}
	// The dead shard's watermark froze before the crash; live shards
	// processed the last round.
	if res.ShardWatermarks[2] >= 5 {
		t.Fatalf("dead shard watermark %d advanced past its crash round", res.ShardWatermarks[2])
	}
	for s := 0; s < 2; s++ {
		if res.ShardWatermarks[s] != 15 {
			t.Fatalf("live shard %d watermark %d, want 15", s, res.ShardWatermarks[s])
		}
	}
	if res.ShardsDown != 1 {
		t.Fatalf("ShardsDown = %d, want 1", res.ShardsDown)
	}
}

func TestShardFlapReconvergesBalanced(t *testing.T) {
	sys, d, forest := shardEnv(t, 12, 8)
	cfg := shardConfig(sys, d, forest, 4)
	// Shard 3 crashes at 4, is declared dead after the suspicion window
	// (3), and comes back cold — views wiped, no journal — at 10.
	cfg.Chaos = &chaos.Config{ShardCrashAt: map[int]int{3: 4}}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(10); err != nil {
		t.Fatal(err)
	}
	if err := m.ResumeShard(3, ResumeState{}); err != nil {
		t.Fatal(err)
	}
	if err := m.StepN(30); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if res.OrphanedTrees == 0 || res.TreesRedispatched != res.OrphanedTrees {
		t.Fatalf("flap cycle accounting off: orphaned %d, re-dispatched %d",
			res.OrphanedTrees, res.TreesRedispatched)
	}
	if len(m.PendingOrphans()) != 0 {
		t.Fatalf("orphans pending after reconvergence: %v", m.PendingOrphans())
	}
	// Reconverged: every shard owns at least one tree again.
	perShard := map[int]int{}
	for _, s := range m.ShardAssignment() {
		perShard[s]++
	}
	for s := 0; s < 4; s++ {
		if perShard[s] == 0 {
			t.Fatalf("shard %d owns nothing after flap reconvergence: %v", s, perShard)
		}
	}
	if res.ShardsDown != 0 {
		t.Fatalf("ShardsDown = %d at end, want 0", res.ShardsDown)
	}
	if final := m.Result(); final.CoveredPairs != final.DemandedPairs {
		t.Fatalf("coverage %d of %d after flaps", final.CoveredPairs, final.DemandedPairs)
	}
}

func TestShardSwapFencesStaleFrames(t *testing.T) {
	// A frame composed for a tree's pre-move owner must be fenced when it
	// arrives after the re-dispatch: no duplicate absorption across the
	// shard swap.
	sys, d, forest := shardEnv(t, 8, 4)
	cfg := shardConfig(sys, d, forest, 2)
	cfg.Chaos = &chaos.Config{ShardCrashAt: map[int]int{1: 4}}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	var victimKey string
	for k, s := range m.ShardAssignment() {
		if s == 1 {
			victimKey = k
			break
		}
	}
	if victimKey == "" {
		t.Fatal("shard 1 owns no trees")
	}
	// Run through crash (4) + suspicion (3): re-dispatch lands at 7.
	if err := m.StepN(10); err != nil {
		t.Fatal(err)
	}
	if s := m.ShardAssignment()[victimKey]; s != 0 {
		t.Fatalf("victim tree owned by %d, want re-dispatch to 0", s)
	}
	staleBefore := m.Result().StaleEpochFrames
	// Replay a frame stamped with the tree's pre-move epoch.
	if err := m.tr.Send(transport.Message{
		TreeKey: victimKey, From: 1, To: model.Central, Epoch: 1,
		Values: []transport.Value{{Node: 1, Attr: 1, Round: 3, Value: 1e9}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if res.StaleEpochFrames != staleBefore+1 {
		t.Fatalf("stale frames %d -> %d, want the pre-move frame fenced",
			staleBefore, res.StaleEpochFrames)
	}
}

func TestShardSeedAssignmentAdopted(t *testing.T) {
	sys, d, forest := shardEnv(t, 8, 4)
	seed := map[string]int{}
	for i, tr := range forest.Trees {
		seed[tr.Attrs.Key()] = (i + 1) % 3
	}
	cfg := shardConfig(sys, d, forest, 3)
	cfg.SeedAssignment = seed
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if got := m.ShardAssignment(); !reflect.DeepEqual(got, seed) {
		t.Fatalf("seed not adopted: got %v want %v", got, seed)
	}
	// Determinism: two machines without a seed place identically.
	cfg2 := shardConfig(sys, d, forest, 3)
	m1, err := NewMachine(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m1.Close() }()
	m2, err := NewMachine(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m2.Close() }()
	if !reflect.DeepEqual(m1.ShardAssignment(), m2.ShardAssignment()) {
		t.Fatal("balance placement not deterministic")
	}
}

// TestResumeCollectorSeedsEveryShard: before the first round,
// ResumeCollector restarts any tier — every shard seeds from the one
// recovered repository and the detector restarts with the recovered dead
// set — and mid-run it refuses a sharded tier, whose root never dies.
func TestResumeCollectorSeedsEveryShard(t *testing.T) {
	sys, d, forest := shardEnv(t, 8, 4)
	m, err := NewMachine(shardConfig(sys, d, forest, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	repo := store.New(0)
	for _, tr := range forest.Trees {
		repo.Observe(model.Pair{Node: 1, Attr: tr.Attrs.Attrs()[0]}, 0, 2.5)
	}
	if err := m.ResumeCollector(ResumeState{Epoch: 4, Repo: repo, Dead: map[model.NodeID]int{3: -1}}); err != nil {
		t.Fatal(err)
	}
	owner := m.ShardAssignment()
	seeded := make(map[int]bool)
	for _, tr := range forest.Trees {
		s := owner[tr.Attrs.Key()]
		if _, ok := m.tier.colls[s].lookupView(model.Pair{Node: 1, Attr: tr.Attrs.Attrs()[0]}); !ok {
			t.Fatalf("tree %s: shard %d not seeded from the recovered repository", tr.Attrs.Key(), s)
		}
		seeded[s] = true
	}
	if len(seeded) < 2 {
		t.Fatalf("trees on %d shard(s); the check needs several", len(seeded))
	}
	if at, ok := m.Detector().DeadAt()[3]; !ok || at != -1 {
		t.Fatalf("detector dead set %v, want node 3 at -1", m.Detector().DeadAt())
	}
	if err := m.StepN(1); err != nil {
		t.Fatal(err)
	}
	if err := m.ResumeCollector(ResumeState{Repo: repo}); err == nil {
		t.Fatal("mid-run ResumeCollector on a sharded tier succeeded")
	}
}
