package cluster

import (
	"fmt"
	"slices"
	"testing"

	"remo/internal/chaos"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/store"
	"remo/internal/task"
	"remo/internal/transport"
)

// TestEpochFenceDropsStaleFrames injects a frame stamped with a
// pre-swap epoch straight into the collector's mailbox and checks the
// fence rejects it without touching the views.
func TestEpochFenceDropsStaleFrames(t *testing.T) {
	sys, d, forest := deployEnv(t, 6, 1, 1e5)
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
		Source: BurstyWalk{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	// Bump the epoch the way a plan install does, before any traffic is
	// in flight, so the stale count below is exactly the injected frame.
	m.InstallDiff(forest, d)
	if m.Epoch() != 2 {
		t.Fatalf("epoch = %d after install, want 2", m.Epoch())
	}

	// A pre-install frame arrives late. It must be fenced, not absorbed.
	delivered := m.Result().ValuesDelivered
	if err := m.tr.Send(transport.Message{
		From: 1, To: model.Central, Epoch: 1,
		Values: []transport.Value{{Node: 1, Attr: 1, Round: 2, Value: 1e9}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if res.StaleEpochFrames != 1 {
		t.Fatalf("StaleEpochFrames = %d, want 1", res.StaleEpochFrames)
	}
	if v, ok := findView(m, model.Pair{Node: 1, Attr: 1}); ok && v == 1e9 {
		t.Fatal("stale frame's value reached the collector view")
	}
	if res.ValuesDelivered <= delivered {
		t.Fatal("current-epoch traffic stopped flowing")
	}
}

// TestInstallFencesEveryTreeInFlight pins what an install fences: the
// frames on the wire at the swap of a tree it rebuilt, and of a tree it
// kept byte for byte, whose frames would otherwise arrive a whole replan
// late in a session.
func TestInstallFencesEveryTreeInFlight(t *testing.T) {
	sys, d, forest := shardEnv(t, 4, 2)
	var delivered []float64
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d, Source: BurstyWalk{Seed: 5},
		Observer: func(_ model.Pair, _ int, v float64) { delivered = append(delivered, v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(3); err != nil {
		t.Fatal(err)
	}
	a, b := forest.Trees[0], forest.Trees[1]
	// B moves from root 2 to root 3; A is the same tree.
	rebuilt := plan.NewTree(b.Attrs)
	if err := rebuilt.AddNode(3, model.Central); err != nil {
		t.Fatal(err)
	}
	for _, n := range []model.NodeID{1, 2, 4} {
		if err := rebuilt.AddNode(n, 3); err != nil {
			t.Fatal(err)
		}
	}
	next := plan.NewForest()
	next.Add(a)
	next.Add(rebuilt)
	diff := m.InstallDiff(next, d)
	if len(diff.Kept) != 1 || diff.Kept[0] != a.Attrs.Key() || len(diff.Rebuilt) != 1 {
		t.Fatalf("diff %+v, want A kept and B rebuilt", diff)
	}

	// Each old root's frame, composed at epoch 1 before the swap, lands
	// at the collector in the first round after it.
	for _, f := range []struct {
		tree  *plan.Tree
		value float64
	}{{a, 1e9}, {b, 2e9}} {
		attr := f.tree.Attrs.Attrs()[0]
		if err := m.tr.Send(transport.Message{
			TreeKey: f.tree.Attrs.Key(), From: f.tree.Root(), To: model.Central, Epoch: 1,
			Values: []transport.Value{{Node: f.tree.Root(), Attr: attr, Round: 2, Value: f.value}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	stale := m.Result().StaleEpochFrames
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(delivered, 1e9) || slices.Contains(delivered, 2e9) {
		t.Fatalf("a frame composed before the swap was absorbed: %v", delivered)
	}
	if got := m.Result().StaleEpochFrames - stale; got < 2 {
		t.Fatalf("%d stale frames counted, want both injected ones at least", got)
	}
}

// TestCollectorCrashBuffersAndResumes drives the full outage cycle at
// the machine level: crash latch, leaf-side buffering while the
// collector is down, resume with an epoch bump, and redelivery of the
// buffered frames.
func TestCollectorCrashBuffersAndResumes(t *testing.T) {
	sys, d, forest := deployEnv(t, 8, 1, 1e5)
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
		LeafBuffer: 64,
		Chaos:      &chaos.Config{CollectorCrashAt: 4},
		Source:     BurstyWalk{Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	if err := m.StepN(4); err != nil {
		t.Fatal(err)
	}
	if m.CollectorDown() {
		t.Fatal("collector down before its crash round")
	}
	deliveredBefore := m.Result().ValuesDelivered
	if err := m.StepN(3); err != nil { // rounds 4-6: outage
		t.Fatal(err)
	}
	if !m.CollectorDown() {
		t.Fatal("collector not down after crash round")
	}
	mid := m.Result()
	if mid.ValuesDelivered != deliveredBefore {
		t.Fatalf("dead collector absorbed values: %d -> %d", deliveredBefore, mid.ValuesDelivered)
	}
	if m.BufferedFrames() == 0 || mid.FramesBuffered == 0 {
		t.Fatal("no frames buffered during the outage")
	}
	if mid.FramesRedelivered != 0 {
		t.Fatalf("redelivered %d frames while the collector was down", mid.FramesRedelivered)
	}
	if mid.Rounds != 7 {
		t.Fatalf("%d rounds counted over 7 rounds", mid.Rounds)
	}

	epochBefore := m.Epoch()
	if err := m.ResumeCollector(ResumeState{Epoch: epochBefore, Repo: store.New(0)}); err != nil {
		t.Fatal(err)
	}
	if m.CollectorDown() {
		t.Fatal("collector still down after resume")
	}
	if m.Epoch() <= epochBefore {
		t.Fatalf("resume did not advance the epoch: %d -> %d", epochBefore, m.Epoch())
	}
	if err := m.StepN(5); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if res.FramesRedelivered == 0 {
		t.Fatal("buffered frames never redelivered after resume")
	}
	if res.ValuesDelivered <= deliveredBefore {
		t.Fatal("no values delivered after resume")
	}
	if res.StaleEpochFrames < 0 {
		t.Fatalf("negative stale counter %d", res.StaleEpochFrames)
	}
	// Conservation: every buffered frame was redelivered, shed, or is
	// still parked.
	if res.FramesRedelivered+res.FramesShed+m.BufferedFrames() != res.FramesBuffered {
		t.Fatalf("frame conservation violated: %d redelivered + %d shed + %d parked != %d buffered",
			res.FramesRedelivered, res.FramesShed, m.BufferedFrames(), res.FramesBuffered)
	}
}

// TestLeafBufferShedsOldest bounds the outage buffers: with a tiny
// LeafBuffer and a long outage, old frames are shed rather than
// growing the buffer without bound.
func TestLeafBufferShedsOldest(t *testing.T) {
	sys, d, forest := deployEnv(t, 6, 1, 1e5)
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
		LeafBuffer: 2,
		Chaos:      &chaos.Config{CollectorCrashAt: 2},
		Source:     BurstyWalk{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	if err := m.StepN(12); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if res.FramesShed == 0 {
		t.Fatalf("no shedding with buffer 2 over a 10-round outage: %+v", res)
	}
	if m.BufferedFrames() > 2*len(sys.NodeIDs()) {
		t.Fatalf("%d frames parked, want <= %d (LeafBuffer per node)",
			m.BufferedFrames(), 2*len(sys.NodeIDs()))
	}
	if res.FramesRedelivered+res.FramesShed+m.BufferedFrames() != res.FramesBuffered {
		t.Fatalf("frame conservation violated: %+v with %d parked", res, m.BufferedFrames())
	}
}

// TestResumeCollectorAdoptsNewerEpoch covers the cold-restart handoff:
// the journal may carry a higher epoch than the freshly booted machine,
// and the resume must fence everything below the recovered epoch.
func TestResumeCollectorAdoptsNewerEpoch(t *testing.T) {
	sys, d, forest := deployEnv(t, 4, 1, 1e5)
	m, err := NewMachine(Config{
		Sys: sys, Forest: forest, Demand: d,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	repo := store.New(0)
	repo.Observe(model.Pair{Node: 1, Attr: 1}, 7, 3.5)
	if err := m.ResumeCollector(ResumeState{Epoch: 9, Repo: repo, Dead: map[model.NodeID]int{2: 5}}); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 10 {
		t.Fatalf("epoch = %d, want recovered 9 + 1", m.Epoch())
	}
	// The recovered store seeds the views (clamped below the machine's
	// round clock, which is 0 here, so staleness stays representable).
	if _, ok := findView(m, model.Pair{Node: 1, Attr: 1}); !ok {
		t.Fatal("recovered sample did not seed the collector view")
	}
	if err := m.StepN(2); err != nil {
		t.Fatal(err)
	}
	if err := verifyResultSane(m.Result()); err != nil {
		t.Fatal(err)
	}
}

// verifyResultSane spot-checks the invariants verify.Result enforces,
// without importing it (the verify package depends on cluster).
func verifyResultSane(res Result) error {
	switch {
	case res.AvgStaleness < 0:
		return errNegative("staleness")
	case res.StaleEpochFrames < 0, res.FramesBuffered < 0, res.FramesShed < 0, res.FramesRedelivered < 0:
		return errNegative("durability counter")
	case res.FramesRedelivered+res.FramesShed > res.FramesBuffered:
		return errNegative("frame conservation")
	case res.Rounds < 0:
		return errNegative("round count")
	}
	return nil
}

type errNegative string

func (e errNegative) Error() string { return "invariant violated: " + string(e) }

// TestInstallPruneConservesParkedFrames pins what an install does to
// the leaf buffers and counters of the nodes it rewires. While the
// collector is down and two roots hold parked frames, an install prunes
// one of them and keeps the other: the pruned node's parked frames book
// as shed, the kept node's drain after the resume, and at every round
// every buffered frame is redelivered, shed or still parked. No
// counter of the Result moves backwards across the install.
func TestInstallPruneConservesParkedFrames(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Tree 1 is rooted at node 1 and tree 2 at node 2, each over
			// all four nodes.
			sys, d, forest := shardEnv(t, 4, 2)
			m, err := NewMachine(Config{
				Sys: sys, Forest: forest, Demand: d,
				Workers:    workers,
				LeafBuffer: 3,
				Chaos:      &chaos.Config{CollectorCrashAt: 2},
				Source:     UtilWalk{Seed: 6},
				Predict:    predictSpec(t, 0.05),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = m.Close() }()
			conserved := func(when string) {
				t.Helper()
				res := m.Result()
				if parked := m.BufferedFrames(); res.FramesBuffered != res.FramesRedelivered+res.FramesShed+parked {
					t.Fatalf("%s: %d buffered != %d redelivered + %d shed + %d parked",
						when, res.FramesBuffered, res.FramesRedelivered, res.FramesShed, parked)
				}
			}
			step := func(n int) {
				t.Helper()
				for range n {
					if err := m.Step(); err != nil {
						t.Fatal(err)
					}
					conserved(fmt.Sprintf("round %d", m.Round()-1))
				}
			}
			step(6) // the collector is down from round 2
			parked := map[model.NodeID]int{}
			for _, st := range m.states {
				parked[st.id] = len(st.outbox)
			}
			if parked[1] == 0 || parked[2] == 0 {
				t.Fatalf("roots hold %v parked frames, want both non-zero", parked)
			}

			// Node 2 leaves the plan; node 1 roots both trees of the rest.
			nd := task.NewDemand()
			next := plan.NewForest()
			for _, a := range []model.AttrID{1, 2} {
				tr := plan.NewTree(model.NewAttrSet(a))
				if err := tr.AddNode(1, model.Central); err != nil {
					t.Fatal(err)
				}
				for _, n := range []model.NodeID{3, 4} {
					if err := tr.AddNode(n, 1); err != nil {
						t.Fatal(err)
					}
				}
				next.Add(tr)
				for _, n := range []model.NodeID{1, 3, 4} {
					nd.Set(n, a, 1)
				}
			}
			before := m.Result()
			m.InstallDiff(next, nd)
			conserved("after the install")
			after := m.Result()
			if after.FramesShed < before.FramesShed+parked[2] {
				t.Fatalf("FramesShed %d -> %d, want the pruned node's %d parked frames booked as shed",
					before.FramesShed, after.FramesShed, parked[2])
			}
			if m.BufferedFrames() != parked[1]+parked[3]+parked[4] {
				t.Fatalf("%d frames parked after the install, want the kept nodes' %d",
					m.BufferedFrames(), parked[1]+parked[3]+parked[4])
			}
			for _, c := range []struct {
				name          string
				before, after int
			}{
				{"Rounds", before.Rounds, after.Rounds},
				{"MessagesSent", before.MessagesSent, after.MessagesSent},
				{"MessagesDropped", before.MessagesDropped, after.MessagesDropped},
				{"ValuesDelivered", before.ValuesDelivered, after.ValuesDelivered},
				{"ValuesObserved", before.ValuesObserved, after.ValuesObserved},
				{"ValuesSuppressed", before.ValuesSuppressed, after.ValuesSuppressed},
				{"ValuesImputed", before.ValuesImputed, after.ValuesImputed},
				{"ModelSyncs", before.ModelSyncs, after.ModelSyncs},
				{"MarkersLost", before.MarkersLost, after.MarkersLost},
				{"StaleEpochFrames", before.StaleEpochFrames, after.StaleEpochFrames},
				{"FramesBuffered", before.FramesBuffered, after.FramesBuffered},
				{"FramesShed", before.FramesShed, after.FramesShed},
				{"FramesRedelivered", before.FramesRedelivered, after.FramesRedelivered},
				{"OrphanedTrees", before.OrphanedTrees, after.OrphanedTrees},
				{"TreesRedispatched", before.TreesRedispatched, after.TreesRedispatched},
				{"LeaderElections", before.LeaderElections, after.LeaderElections},
			} {
				if c.after < c.before {
					t.Errorf("%s fell across the install: %d -> %d", c.name, c.before, c.after)
				}
			}

			step(2) // still down: the kept root parks under the new plan
			if err := m.ResumeCollector(ResumeState{Epoch: m.Epoch(), Repo: store.New(0)}); err != nil {
				t.Fatal(err)
			}
			step(6)
			if res := m.Result(); res.FramesRedelivered == before.FramesRedelivered {
				t.Fatal("the kept root never redelivered its parked frames")
			}
		})
	}
}
