package remo_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"remo"
	"remo/internal/journal"
	"remo/internal/workload"
)

// TestCollectorCrashRecoveryEndToEnd is the durability acceptance run:
// a seeded chaos schedule crashes the central collector mid-session,
// the session rides out the outage (leaves buffer their values), the
// collector resumes from the journal onto a fenced epoch, and the run
// continues for 50+ rounds with the verification harness passing
// against the recovered state.
func TestCollectorCrashRecoveryEndToEnd(t *testing.T) {
	const (
		crashRnd = 10
		outage   = 3
		after    = 50
	)
	dir := t.TempDir()
	sys := bigSystem(t, 20)
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()})

	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed:    7,
		Chaos:   &remo.ChaosConfig{CollectorCrashAt: crashRnd, Seed: 7},
		Failure: &remo.FailurePolicy{SuspicionRounds: 3},
		Journal: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()

	if err := mon.Run(crashRnd + outage); err != nil {
		t.Fatal(err)
	}
	pre := mon.Report()
	if pre.FramesBuffered == 0 {
		t.Fatal("no frames buffered during the collector outage")
	}
	if pre.CollectorRestarts != 0 {
		t.Fatalf("restarts = %d before resume", pre.CollectorRestarts)
	}

	rr, err := mon.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Epoch < 2 {
		t.Fatalf("resumed epoch = %d, want a post-crash bump", rr.Epoch)
	}
	if !rr.PlanMatched {
		t.Fatal("resumed session does not match the journaled plan fingerprint")
	}
	if rr.RecoveredSamples == 0 {
		t.Fatal("no samples recovered from the journal")
	}
	// The journal stops at the crash: nothing from the outage window.
	if rr.RecoveredRound >= crashRnd {
		t.Fatalf("recovered round %d, want < crash round %d", rr.RecoveredRound, crashRnd)
	}

	if err := mon.Run(after); err != nil {
		t.Fatal(err)
	}
	if err := mon.Verify(); err != nil {
		t.Fatalf("recovered session failed verification: %v", err)
	}
	rep := mon.Report()
	if rep.Rounds != crashRnd+outage+after {
		t.Fatalf("rounds = %d, want %d", rep.Rounds, crashRnd+outage+after)
	}
	if rep.CollectorRestarts != 1 {
		t.Fatalf("restarts = %d, want 1", rep.CollectorRestarts)
	}
	if rep.ValuesDelivered <= pre.ValuesDelivered {
		t.Fatal("no values delivered after the resume")
	}
	// Buffered leaf values were delivered or accounted as shed; nothing
	// vanished (remaining parked frames keep the inequality strict).
	if rep.FramesRedelivered == 0 {
		t.Fatal("no buffered frames redelivered after the resume")
	}
	if rep.FramesRedelivered+rep.FramesShed > rep.FramesBuffered {
		t.Fatalf("frame conservation violated: %d redelivered + %d shed > %d buffered",
			rep.FramesRedelivered, rep.FramesShed, rep.FramesBuffered)
	}
	if rep.StaleEpochFrames < 0 {
		t.Fatalf("negative stale-epoch counter %d", rep.StaleEpochFrames)
	}
	// The repository kept every post-resume value too.
	if mon.Store() == nil || mon.Store().Len() <= rr.RecoveredSamples {
		t.Fatal("repository did not grow past the recovered snapshot")
	}
}

// TestColdResumeMonitor restarts a whole process's worth of state: the
// first session journals and dies, and ResumeMonitor boots a fresh
// session from the journal alone — recovered demand, store and history.
func TestColdResumeMonitor(t *testing.T) {
	dir := t.TempDir()
	sys := bigSystem(t, 12)
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})

	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 3, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(20); err != nil {
		t.Fatal(err)
	}
	firstLen := mon.Store().Len()
	if firstLen == 0 {
		t.Fatal("journaled session stored nothing")
	}
	if err := mon.Close(); err != nil { // seals a final checkpoint
		t.Fatal(err)
	}

	mon2, rr, err := p.ResumeMonitor(dir, remo.MonitorConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon2.Close() }()
	if rr.RecoveredSamples == 0 || rr.RecoveredRound < 0 {
		t.Fatalf("cold resume recovered %d samples through round %d",
			rr.RecoveredSamples, rr.RecoveredRound)
	}
	if !rr.PlanMatched {
		t.Fatal("replanned topology does not match the journaled fingerprint")
	}
	if mon2.Store().Len() != rr.RecoveredSamples {
		t.Fatalf("store has %d samples, resume reported %d",
			mon2.Store().Len(), rr.RecoveredSamples)
	}
	if err := mon2.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := mon2.Verify(); err != nil {
		t.Fatalf("cold-resumed session failed verification: %v", err)
	}
	rep := mon2.Report()
	if rep.CollectorRestarts != 1 {
		t.Fatalf("restarts = %d, want 1", rep.CollectorRestarts)
	}
	if mon2.Store().Len() <= rr.RecoveredSamples {
		t.Fatal("cold-resumed session collected nothing new")
	}
}

// TestColdResumeAfterChurn crashes a session mid-churn: tasks mutate
// several times (journaled as recTasks records with the partition and
// plan diff), the process dies without sealing a final checkpoint, and
// the cold resume must rebuild the exact pre-crash forest — fingerprint
// match included — from the journaled partition alone.
func TestColdResumeAfterChurn(t *testing.T) {
	dir := t.TempDir()
	sys := bigSystem(t, 12)
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})

	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 11, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(5); err != nil {
		t.Fatal(err)
	}
	// Three churn batches: grow, rewire, shrink.
	batches := [][]remo.Task{
		{
			{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()},
			{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()[:8]},
		},
		{
			{Name: "cpu", Attrs: []remo.AttrID{1, 3}, Nodes: sys.NodeIDs()},
			{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()[:8]},
		},
		{
			{Name: "cpu", Attrs: []remo.AttrID{1, 3}, Nodes: sys.NodeIDs()[:10]},
		},
	}
	for i, tasks := range batches {
		rep, err := mon.SetTasks(tasks)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if rep.TreesKept+rep.TreesRebuilt == 0 {
			t.Fatalf("batch %d: replan produced no trees", i)
		}
		if err := mon.Run(3); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	events := mon.Report().Replans
	if len(events) != len(batches) {
		t.Fatalf("recorded %d replan events, want %d", len(events), len(batches))
	}
	fp := mon.Fingerprint()
	// Crash: the session is abandoned without Close, so recovery replays
	// the churn from WAL records instead of reading a sealed checkpoint.

	mon2, rr, err := p.ResumeMonitor(dir, remo.MonitorConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon2.Close() }()
	if !rr.PlanMatched {
		t.Fatalf("cold resume rebuilt fingerprint %#x, want the pre-crash %#x", mon2.Fingerprint(), fp)
	}
	if mon2.Fingerprint() != fp {
		t.Fatalf("resumed fingerprint %#x differs from pre-crash %#x", mon2.Fingerprint(), fp)
	}
	if err := mon2.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := mon2.Verify(); err != nil {
		t.Fatalf("resumed session failed verification: %v", err)
	}
	_ = mon.Close()
}

// TestColdResumeRestoresDeadSet: a cold resume restarts the failure
// detector with the journaled dead set on every tier, lone or sharded.
// A node declared dead before the restart that comes back is
// reintegrated, and one still down is not declared dead a second time.
func TestColdResumeRestoresDeadSet(t *testing.T) {
	forever := map[remo.NodeID][]remo.ChaosWindow{5: {{From: 0, To: math.MaxInt}}}
	for _, shards := range []int{1, 4} {
		for _, tc := range []struct {
			name      string
			crash     map[remo.NodeID][]remo.ChaosWindow
			recovered int
			failed    []remo.NodeID
		}{
			{"back", nil, 1, []remo.NodeID{}},
			{"still-down", forever, 0, []remo.NodeID{5}},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, tc.name), func(t *testing.T) {
				dir := t.TempDir()
				sys := bigSystem(t, 16)
				p := remo.NewPlanner(sys, remo.WithVerification())
				p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
				p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()})
				failure := &remo.FailurePolicy{SuspicionRounds: 2}
				mon, err := p.StartMonitor(remo.MonitorConfig{
					Seed: 7, Journal: dir, Shards: shards, Failure: failure,
					Chaos: &remo.ChaosConfig{Seed: 7, CrashWindows: map[remo.NodeID][]remo.ChaosWindow{
						5: {{From: 3, To: math.MaxInt}},
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
				run(t, mon, 15)
				if got := mon.Failed(); !reflect.DeepEqual(got, []remo.NodeID{5}) {
					t.Fatalf("dead before the restart = %v, want [5]", got)
				}
				if err := mon.Close(); err != nil {
					t.Fatal(err)
				}

				cfg := remo.MonitorConfig{Seed: 7, Shards: shards, Failure: failure}
				if tc.crash != nil {
					cfg.Chaos = &remo.ChaosConfig{Seed: 7, CrashWindows: tc.crash}
				}
				mon2, _, err := p.ResumeMonitor(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = mon2.Close() }()
				run(t, mon2, 15)
				rep := mon2.Report()
				if rep.FailuresDetected != 1 || rep.NodesRecovered != tc.recovered {
					t.Fatalf("%d failures, %d recoveries; want 1, %d",
						rep.FailuresDetected, rep.NodesRecovered, tc.recovered)
				}
				if got := mon2.Failed(); !reflect.DeepEqual(got, tc.failed) {
					t.Fatalf("dead after the restart = %v, want %v", got, tc.failed)
				}
				if err := mon2.Verify(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestResumeRequiresJournal pins the error contract: resuming a session
// that never journaled is refused with a clear message.
func TestResumeRequiresJournal(t *testing.T) {
	sys := bigSystem(t, 6)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if _, err := mon.Resume(); err == nil ||
		!strings.Contains(err.Error(), "without journaling") {
		t.Fatalf("err = %v, want journaling-required error", err)
	}
	// And resuming from a journal whose segments are gone fails even on
	// a journaled session whose collector is down: no checkpoint, no
	// resume.
	dir := t.TempDir()
	p2 := remo.NewPlanner(sys)
	p2.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	mon2, err := p2.StartMonitor(remo.MonitorConfig{
		Seed: 1, Journal: dir, Chaos: &remo.ChaosConfig{CollectorCrashAt: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon2.Close() }()
	run(t, mon2, 3)
	if !mon2.CollectorDown() {
		t.Fatal("collector not down after its crash round")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal segments %v: %v", segs, err)
	}
	for _, f := range segs {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon2.Resume(); !errors.Is(err, journal.ErrNoJournal) {
		t.Fatalf("resume from a journal without segments = %v, want ErrNoJournal", err)
	}
}

// TestResumeRefusesLiveCollector: Resume restarts a crashed collector,
// so on a live session, lone or sharded, it is refused and changes
// nothing — no restart counted, the journaled store kept.
func TestResumeRefusesLiveCollector(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			sys := bigSystem(t, 16)
			p := remo.NewPlanner(sys, remo.WithVerification())
			p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
			p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()})
			mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 1, Journal: dir, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = mon.Close() }()
			run(t, mon, 5)
			store := mon.Store()
			if _, err := mon.Resume(); err == nil || !strings.Contains(err.Error(), "not down") {
				t.Fatalf("Resume on a live session = %v, want a not-down error", err)
			}
			if got := mon.Report().CollectorRestarts; got != 0 {
				t.Fatalf("refused resume counted %d restarts", got)
			}
			if mon.Store() != store {
				t.Fatal("refused resume swapped the journaled store")
			}
			run(t, mon, 3)
			if err := mon.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLoneCollectorCrashCounters: a lone collector is a 1-shard tier, and
// its crash reads as that shard's state, not as shard churn. The shard
// is down for the outage with its watermark held at the round before
// the crash, and up again after Resume; the dispatcher, which died with
// it, never declares it dead, so no tree is orphaned, re-dispatched or
// led anew — although the outage outlasts the suspicion window — and
// the tier verifies in every round of it.
func TestLoneCollectorCrashCounters(t *testing.T) {
	const (
		crashRnd = 8
		outage   = 6
	)
	dir := t.TempDir()
	sys := bigSystem(t, 12)
	p := remo.NewPlanner(sys, remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()})
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed:    3,
		Chaos:   &remo.ChaosConfig{CollectorCrashAt: crashRnd, Seed: 3},
		Failure: &remo.FailurePolicy{SuspicionRounds: 2},
		Journal: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	check := func(stage string, down, watermark int) {
		t.Helper()
		rep := mon.Report()
		if rep.Shards != 1 || rep.ShardsDown != down || !reflect.DeepEqual(rep.ShardWatermarks, []int{watermark}) {
			t.Fatalf("%s: %d shards, %d down, watermarks %v; want 1, %d, [%d]",
				stage, rep.Shards, rep.ShardsDown, rep.ShardWatermarks, down, watermark)
		}
		if rep.OrphanedTrees != 0 || rep.TreesRedispatched != 0 || rep.LeaderElections != 0 {
			t.Fatalf("%s: shard churn: %d orphaned, %d redispatched, %d elections",
				stage, rep.OrphanedTrees, rep.TreesRedispatched, rep.LeaderElections)
		}
	}
	run(t, mon, crashRnd)
	check("before the crash", 0, crashRnd-1)
	for r := 0; r < outage; r++ {
		run(t, mon, 1)
		if !mon.CollectorDown() {
			t.Fatalf("collector up %d rounds into its outage", r+1)
		}
		check(fmt.Sprintf("outage round %d", crashRnd+r), 1, crashRnd-1)
		if err := mon.Verify(); err != nil {
			t.Fatalf("outage round %d: %v", crashRnd+r, err)
		}
	}
	if _, err := mon.Resume(); err != nil {
		t.Fatal(err)
	}
	check("at resume", 0, crashRnd-1)
	run(t, mon, 10)
	check("after resume", 0, crashRnd+outage+10-1)
	if err := mon.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestJournaledTriggersResumeCooldowns closes the processor loop: a
// trigger that fired before the restart stays in cooldown after a cold
// resume instead of re-alerting immediately.
func TestJournaledTriggersResumeCooldowns(t *testing.T) {
	dir := t.TempDir()
	sys := bigSystem(t, 8)
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})

	proc := remo.NewProcessor(0)
	// Always-firing trigger with a long cooldown: exactly one alert per
	// pair over the horizon.
	if err := proc.AddTrigger(remo.Trigger{
		Name: "any", Attr: 1, Cond: remo.TriggerAbove, Threshold: -1e18, Cooldown: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 5, Processor: proc, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Run(10); err != nil {
		t.Fatal(err)
	}
	fired := proc.AlertCount()
	if fired == 0 {
		t.Fatal("trigger never fired")
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	proc2 := remo.NewProcessor(0)
	if err := proc2.AddTrigger(remo.Trigger{
		Name: "any", Attr: 1, Cond: remo.TriggerAbove, Threshold: -1e18, Cooldown: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	mon2, _, err := p.ResumeMonitor(dir, remo.MonitorConfig{Seed: 5, Processor: proc2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon2.Close() }()
	if err := mon2.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := proc2.AlertCount(); got != 0 {
		t.Fatalf("restored triggers re-fired %d times inside their cooldowns", got)
	}
}

// TestResumeAcrossSizeRotation crashes the collector after its journal
// has rotated by WAL size: the remo-sim run -nodes 60 -tasks 40 with a
// collector crash at round 300. The resume starts from the checkpoint
// that rotation sealed and replays the WAL written since, more than 16
// records; what it recovers must be exactly the live repository at the
// crash.
func TestResumeAcrossSizeRotation(t *testing.T) {
	const crashRnd = 300
	sys, err := workload.System(workload.SystemConfig{
		Nodes: 60, Attrs: 40, CapacityLo: 150, CapacityHi: 400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := remo.NewPlanner(sys, remo.WithVerification())
	for _, task := range workload.Tasks(sys, workload.TaskConfig{Count: 40, AttrsPerTask: 8, NodesPerTask: 12, Seed: 2}) {
		p.MustAddTask(task)
	}
	dir := t.TempDir()
	mon, err := p.StartMonitor(remo.MonitorConfig{
		Seed:    1,
		Chaos:   &remo.ChaosConfig{CollectorCrashAt: crashRnd, MaxDelayRounds: 1, Seed: 1},
		Failure: &remo.FailurePolicy{SuspicionRounds: 3},
		Journal: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mon.Close() }()
	if err := mon.Run(crashRnd + 2); err != nil {
		t.Fatal(err)
	}
	if !mon.CollectorDown() {
		t.Fatal("collector not down after its crash round")
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Segment == 0 {
		t.Fatal("journal never rotated before the crash")
	}
	live := storeSeries(mon.Store())

	rr, err := mon.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if rr.ReplayedRecords <= 16 || rr.TornTail || !rr.PlanMatched {
		t.Fatalf("resume replayed %d records (torn %v, plan matched %v); want > 16, clean, matched",
			rr.ReplayedRecords, rr.TornTail, rr.PlanMatched)
	}
	if rr.RecoveredRound != crashRnd-1 {
		t.Fatalf("recovered through round %d, want %d", rr.RecoveredRound, crashRnd-1)
	}
	if got := storeSeries(mon.Store()); !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered store (%d series) differs from the live one at the crash (%d series)", len(got), len(live))
	}
	if err := mon.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := mon.Verify(); err != nil {
		t.Fatalf("resumed session failed verification: %v", err)
	}
}

// storeSeries copies every retained series of st.
func storeSeries(st *remo.Store) map[remo.Pair][]remo.Sample {
	out := make(map[remo.Pair][]remo.Sample)
	st.EachSeries(func(p remo.Pair, samples []remo.Sample) {
		out[p] = append([]remo.Sample(nil), samples...)
	})
	return out
}
