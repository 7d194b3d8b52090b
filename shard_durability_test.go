package remo_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"remo"
)

// TestShardCrashResumeEndToEnd is the sharded durability acceptance
// run: a 4-shard session loses shard 0 (which, as the heaviest-loaded
// shard, always owns at least one tree — and holds the dispatcher
// lease), the orphaned trees are re-dispatched onto survivors within
// the suspicion window, a new leader is elected once the old lease
// expires, and the shard resumes from the session's one journal — which
// the tier's root kept writing through the outage — while the other
// shards never notice.
func TestShardCrashResumeEndToEnd(t *testing.T) {
	const (
		shards   = 4
		crashRnd = 8
		horizon  = 20
	)
	dir := t.TempDir()
	sys := bigSystem(t, 16)
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()})

	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed:    7,
		Shards:  shards,
		Journal: dir,
		Chaos:   &remo.ChaosConfig{ShardCrashAt: map[int]int{0: crashRnd}, Seed: 7},
		Failure: &remo.FailurePolicy{SuspicionRounds: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()

	assign := mon.ShardAssignment()
	if len(assign) == 0 {
		t.Fatal("sharded session placed no trees")
	}
	victims := 0
	for _, s := range assign {
		if s == 0 {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("shard 0 owns no trees; the crash would be a no-op")
	}

	if err := mon.Run(horizon); err != nil {
		t.Fatal(err)
	}
	pre := mon.Report()
	if pre.Shards != shards || pre.ShardsDown != 1 {
		t.Fatalf("shards=%d down=%d, want %d/1", pre.Shards, pre.ShardsDown, shards)
	}
	if pre.OrphanedTrees != victims || pre.TreesRedispatched != victims {
		t.Fatalf("orphaned=%d redispatched=%d, want %d each",
			pre.OrphanedTrees, pre.TreesRedispatched, victims)
	}
	if pre.LeaderElections == 0 {
		t.Fatal("leader died but no election was recorded")
	}
	if len(pre.Redispatches) == 0 {
		t.Fatal("no re-dispatch events recorded")
	}
	for _, ev := range pre.Redispatches[:victims] {
		if ev.FromShard != 0 {
			t.Fatalf("re-dispatch %+v does not come from the dead shard", ev)
		}
		// Suspicion window plus the dead leader's lease, not the horizon.
		if lag := ev.Round - crashRnd; lag <= 0 || lag > 10 {
			t.Fatalf("re-dispatch %+v landed %d rounds after the crash, want (0, 10]", ev, lag)
		}
	}
	if len(pre.ShardWatermarks) != shards {
		t.Fatalf("got %d watermarks, want %d", len(pre.ShardWatermarks), shards)
	}
	if pre.ShardWatermarks[0] >= crashRnd {
		t.Fatalf("dead shard watermark %d at crash round %d", pre.ShardWatermarks[0], crashRnd)
	}
	for s := 1; s < shards; s++ {
		if pre.ShardWatermarks[s] != horizon-1 {
			t.Fatalf("live shard %d watermark %d, want %d", s, pre.ShardWatermarks[s], horizon-1)
		}
	}

	rr, err := mon.ResumeShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.RecoveredSamples == 0 {
		t.Fatal("no samples recovered from the session journal")
	}
	if rr.RecoveredRound != horizon-1 {
		t.Fatalf("recovered round %d, want the round before the resume, %d", rr.RecoveredRound, horizon-1)
	}
	if !rr.PlanMatched {
		t.Fatal("resumed shard does not match the journaled plan fingerprint")
	}

	if err := mon.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := mon.Verify(); err != nil {
		t.Fatalf("recovered session failed verification: %v", err)
	}
	rep := mon.Report()
	if rep.ShardsDown != 0 {
		t.Fatalf("shards down = %d after resume", rep.ShardsDown)
	}
	if rep.CollectorRestarts != 1 {
		t.Fatalf("restarts = %d, want 1", rep.CollectorRestarts)
	}
	if rep.ValuesDelivered <= pre.ValuesDelivered {
		t.Fatal("no values delivered after the shard resume")
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	if extra, err := filepath.Glob(filepath.Join(dir, "shard-*")); err != nil || len(extra) > 0 {
		t.Fatalf("journal directory holds %v (%v), want the session journal alone", extra, err)
	}
}

// TestShardOutageVerifiesEveryRound verifies a 4-shard session after
// every round of a shard's crash: the suspicion window, when the crashed
// shard still owns its trees and none is an orphan yet, the orphan
// window, the re-dispatch, and the resume. Orphanhood follows the
// dispatcher's death verdict, not the crash.
func TestShardOutageVerifiesEveryRound(t *testing.T) {
	const crashRnd = 5
	dir := t.TempDir()
	sys := bigSystem(t, 16)
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()})
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed: 1, Shards: 4, Journal: dir,
		Chaos:   &remo.ChaosConfig{ShardCrashAt: map[int]int{0: crashRnd}},
		Failure: &remo.FailurePolicy{SuspicionRounds: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	step := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			run(t, mon, 1)
			if err := mon.Verify(); err != nil {
				t.Fatalf("round %d: %v", mon.Round()-1, err)
			}
		}
	}
	step(crashRnd + 10)
	if rep := mon.Report(); rep.ShardsDown != 1 || rep.TreesRedispatched == 0 {
		t.Fatalf("the crash was not ridden out: %d down, %d redispatched", rep.ShardsDown, rep.TreesRedispatched)
	}
	if _, err := mon.ResumeShard(0); err != nil {
		t.Fatal(err)
	}
	step(5)
}

// TestShardColdResumeIdenticalAssignment pins the cold-resume contract
// of the sharded tier: a process restart rebuilds the identical
// tree→shard map from the journaled assignment, and every shard's views
// re-seed from the session journal.
func TestShardColdResumeIdenticalAssignment(t *testing.T) {
	dir := t.TempDir()
	sys := bigSystem(t, 12)
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()})

	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 3, Shards: 4, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(12); err != nil {
		t.Fatal(err)
	}
	want := mon.ShardAssignment()
	if len(want) == 0 {
		t.Fatal("sharded session placed no trees")
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	mon2, rr, err := p.ResumeMonitor(dir, remo.MonitorConfig{Seed: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon2.Close() }()
	if !rr.PlanMatched {
		t.Fatal("cold resume rebuilt a different plan fingerprint")
	}
	if rr.RecoveredSamples == 0 {
		t.Fatal("cold resume recovered no samples")
	}
	if got := mon2.ShardAssignment(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold-resumed assignment %v, want the pre-crash %v", got, want)
	}
	if err := mon2.Run(8); err != nil {
		t.Fatal(err)
	}
	if err := mon2.Verify(); err != nil {
		t.Fatalf("cold-resumed session failed verification: %v", err)
	}
	if rep := mon2.Report(); rep.Shards != 4 || rep.ShardsDown != 0 {
		t.Fatalf("shards=%d down=%d after cold resume, want 4/0", rep.Shards, rep.ShardsDown)
	}
}

// TestShardedWithoutJournal covers the non-durable sharded session:
// collection works, the report carries shard counters, and ResumeShard
// is refused with a clear message.
func TestShardedWithoutJournal(t *testing.T) {
	sys := bigSystem(t, 10)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 5, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(10); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.Shards != 3 || rep.ShardsDown != 0 {
		t.Fatalf("shards=%d down=%d, want 3/0", rep.Shards, rep.ShardsDown)
	}
	if rep.PercentCollected <= 0 {
		t.Fatal("sharded session collected nothing")
	}
	if mon.ShardLeader() != 0 {
		t.Fatalf("leader = %d, want the initial leaseholder 0", mon.ShardLeader())
	}
	if _, err := mon.ResumeShard(0); err == nil ||
		!strings.Contains(err.Error(), "not sharded or not journaled") {
		t.Fatalf("err = %v, want not-journaled refusal", err)
	}
}
