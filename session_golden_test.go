package remo_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"remo"
	"remo/internal/journal"
)

// goldenSessions holds, per scripted session and stage, the FNV-1a hash
// of Monitor.Report() plus the state journal.Recover reads back from the
// session's directory, as produced by the last commit whose monitor.go
// wrote the recover → restore → re-create sequence out once per resume
// entry point (ca881aa). Memory and TCP gave the same hash at every
// stage. Every hash was re-taken when a round's score became an exact
// integer tally and the report lost its per-round error series: with
// AvgPercentError left out the hashes matched at every stage, and
// AvgPercentError moved by at most 3.3e-10 percentage points. The lone
// entries were re-taken once more when the lone collector became a
// 1-shard tier: its report now carries one shard and that shard's
// watermark, and with the six shard fields left out both hashes matched,
// its journals byte for byte. The sharded entries were re-taken once
// more when a session kept one journal whatever its shard count: with
// the resume report left out and only the session's directory hashed,
// both hashes matched over memory and TCP, and the in-process shard
// resume now reports what the session journal recovers (round 19, 580
// samples, 4 records replayed) instead of a shard journal's (round 7,
// 226 samples, 8 records), at the same epoch. Both live entries were
// re-taken when the journal began rotating by WAL size instead of every
// 16 rounds: only ResumeReport.ReplayedRecords moved (lone 21 → 43,
// sharded 4 → 21, the resume now replaying the WAL since the opening
// checkpoint); with that field zeroed before hashing, the old and new
// writers hashed 0x1d0301780f3781e9 and 0x0b310883f37c339a over memory
// and TCP alike, and both cold entries stayed as they were. A failing
// run prints the hash it got: regenerate an entry only after checking
// that the behaviour change is the intended one.
var goldenSessions = map[string]uint64{
	"lone/live":    0x3f421069f59d511c,
	"lone/cold":    0x10f62a8e18e79d2e,
	"sharded/live": 0x8ae7b26f88faa119,
	"sharded/cold": 0x32c9dee107e7bca5,
}

// TestSessionGolden pins everything a session's owner of state must get
// right — self-heal, task swaps, in-process and cold resume, the one
// session journal — to the reports and journal bytes of the pre-split
// Monitor.
func TestSessionGolden(t *testing.T) {
	for _, tr := range []struct {
		name string
		tcp  bool
	}{{"memory", false}, {"tcp", true}} {
		if tr.tcp && testing.Short() {
			continue // real sockets
		}
		t.Run("lone/"+tr.name, func(t *testing.T) { loneSession(t, tr.tcp) })
		t.Run("sharded/"+tr.name, func(t *testing.T) { shardedSession(t, tr.tcp) })
	}
}

// loneSession scripts a single-collector session: a node crash with
// repair and reintegration, two task swaps, a second node that dies for
// good (so every journal carries a dead set), a collector crash resumed
// in-process, then Close and a cold resume that sees the node alive.
func loneSession(t *testing.T, tcp bool) {
	dir := t.TempDir()
	sys := bigSystem(t, 16)
	all := sys.NodeIDs()
	cpu := remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: all}
	mem := remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: all}
	disk := remo.Task{Name: "disk", Attrs: []remo.AttrID{3}, Nodes: all[:8]}
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(cpu)
	p.MustAddTask(mem)

	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed: 7, UseTCP: tcp, Journal: dir,
		Chaos: &remo.ChaosConfig{
			Seed: 7,
			CrashWindows: map[remo.NodeID][]remo.ChaosWindow{
				5: {{From: 6, To: 12}},
				9: {{From: 22, To: math.MaxInt}},
			},
			CollectorCrashAt: 30,
		},
		Failure: &remo.FailurePolicy{SuspicionRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	run(t, mon, 20)
	if rep := mon.Report(); rep.FailuresDetected != 1 || rep.NodesRecovered != 1 || len(rep.Repairs) != 2 {
		t.Fatalf("script did not exercise repair + reintegration: %+v", rep.Repairs)
	}
	if _, err := mon.SetTasks([]remo.Task{cpu, mem, disk}); err != nil {
		t.Fatal(err)
	}
	run(t, mon, 5)
	if _, err := mon.SetTasks([]remo.Task{cpu, disk}); err != nil {
		t.Fatal(err)
	}
	run(t, mon, 8)
	if !mon.CollectorDown() || len(mon.Failed()) != 1 {
		t.Fatalf("collector down %v, dead %v at round 33", mon.CollectorDown(), mon.Failed())
	}
	rr, err := mon.Resume()
	if err != nil {
		t.Fatal(err)
	}
	run(t, mon, 10)
	if err := mon.Verify(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lone/live", mon, rr, dir)

	mon2, rr, err := p.ResumeMonitor(dir, remo.MonitorConfig{Seed: 7, UseTCP: tcp})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon2.Close() }()
	run(t, mon2, 5)
	checkGolden(t, "lone/cold", mon2, rr, dir)
}

// shardedSession scripts a 4-shard session: shard 0 crashes, its trees
// are re-dispatched, it resumes from the session journal, one task
// swap, then Close and a cold resume that seeds every shard from it.
func shardedSession(t *testing.T, tcp bool) {
	const shards = 4
	dir := t.TempDir()
	sys := bigSystem(t, 16)
	all := sys.NodeIDs()
	cpu := remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: all}
	mem := remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: all}
	disk := remo.Task{Name: "disk", Attrs: []remo.AttrID{3}, Nodes: all[:8]}
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(cpu)
	p.MustAddTask(mem)

	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed: 7, UseTCP: tcp, Journal: dir, Shards: shards,
		Chaos:   &remo.ChaosConfig{Seed: 7, ShardCrashAt: map[int]int{0: 8}},
		Failure: &remo.FailurePolicy{SuspicionRounds: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	run(t, mon, 20)
	if rep := mon.Report(); rep.ShardsDown != 1 || rep.TreesRedispatched == 0 {
		t.Fatalf("script did not exercise re-dispatch: %+v", rep)
	}
	rr, err := mon.ResumeShard(0)
	if err != nil {
		t.Fatal(err)
	}
	run(t, mon, 10)
	if _, err := mon.SetTasks([]remo.Task{cpu, mem, disk}); err != nil {
		t.Fatal(err)
	}
	run(t, mon, 5)
	if err := mon.Verify(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sharded/live", mon, rr, dir)

	mon2, rr, err := p.ResumeMonitor(dir, remo.MonitorConfig{Seed: 7, UseTCP: tcp, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon2.Close() }()
	run(t, mon2, 5)
	checkGolden(t, "sharded/cold", mon2, rr, dir)
}

func run(t *testing.T, mon *remo.Monitor, n int) {
	t.Helper()
	if err := mon.Run(n); err != nil {
		t.Fatal(err)
	}
}

// checkGolden closes the session and compares the hash of its last
// resume report, its final report and what its journal directory now
// recovers to against the golden one.
func checkGolden(t *testing.T, name string, mon *remo.Monitor, rr remo.ResumeReport, dir string) {
	t.Helper()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", rr)
	hashReport(h, mon.Report())
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	hashJournal(t, h, dir)
	if got, want := h.Sum64(), goldenSessions[name]; got != want {
		t.Errorf("%s: hash %#016x, golden %#016x", name, got, want)
	}
}

// hashReport feeds every field of the report but the wall-clock
// ReplanEvent.PlanTime, field by field so the hash does not depend on
// how DeployReport lays them out.
func hashReport(h hash.Hash64, rep remo.DeployReport) {
	fmt.Fprintln(h, rep.Rounds, rep.DemandedPairs, rep.CoveredPairs, rep.PercentCollected,
		rep.AvgPercentError, rep.AvgStaleness, rep.MessagesSent, rep.MessagesDropped,
		rep.ValuesDelivered, rep.ValuesObserved, rep.ValuesSuppressed, rep.ValuesImputed,
		rep.ModelSyncs, rep.MarkersLost, rep.ImputeBandMax,
		rep.StaleEpochFrames, rep.FramesBuffered, rep.FramesShed, rep.FramesRedelivered,
		rep.Shards, rep.ShardsDown, rep.OrphanedTrees, rep.TreesRedispatched,
		rep.LeaderElections, rep.ShardWatermarks,
		rep.FailuresDetected, rep.NodesRecovered, rep.CollectorRestarts)
	fmt.Fprintf(h, "%+v %+v\n", rep.Repairs, rep.Redispatches)
	for _, ev := range rep.Replans {
		ev.PlanTime = 0
		fmt.Fprintf(h, "%+v\n", ev)
	}
}

// hashJournal feeds what a recovery of dir would restore.
func hashJournal(t *testing.T, h hash.Hash64, dir string) {
	t.Helper()
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := rec.State
	dead := make([]int, 0, len(st.Dead))
	for n := range st.Dead {
		dead = append(dead, int(n))
	}
	sort.Ints(dead)
	keys := make([]string, 0, len(st.Assignment))
	for k := range st.Assignment {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(h, st.Epoch, st.Fingerprint, st.Round, st.Store.Len(), rec.LastRound, dead)
	for _, k := range keys {
		fmt.Fprintln(h, k, st.Assignment[k])
	}
}
