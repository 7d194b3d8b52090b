package cluster

import (
	"reflect"
	"testing"

	"remo/internal/chaos"
	"remo/internal/cost"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/store"
	"remo/internal/task"
)

// referenceDedupRounds is the window every pair held before the span
// was derived from the worst delivery lag: 65 536 rounds, whatever the
// session.
const referenceDedupRounds = 1 << 16

// setDedupSpan makes every delivery window m allocates from now on cover
// span rounds: the machine's, which installs and resumes copy, and each
// collector's.
func setDedupSpan(m *Machine, span int) {
	m.cfg.dedup = span
	for _, c := range m.tier.colls {
		c.cfg.dedup = span
	}
	m.tier.resid.cfg.dedup = span
}

// chainTree builds one tree over attrs whose members form a chain in the
// given order, the first one under the collector.
func chainTree(tb testing.TB, attrs model.AttrSet, order []model.NodeID) *plan.Tree {
	tb.Helper()
	tr := plan.NewTree(attrs)
	parent := model.Central
	for _, n := range order {
		if err := tr.AddNode(n, parent); err != nil {
			tb.Fatal(err)
		}
		parent = n
	}
	return tr
}

// lagSystem is n nodes that each hold attrs, with ample capacity.
func lagSystem(tb testing.TB, n int, attrs ...model.AttrID) *model.System {
	tb.Helper()
	nodes := make([]model.Node, n)
	for i := range nodes {
		nodes[i] = model.Node{ID: model.NodeID(i + 1), Capacity: 1e9, Attrs: attrs}
	}
	sys, err := model.NewSystem(1e9, cost.Model{PerMessage: 10, PerValue: 1}, nodes)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestDedupSpanCoversWorstLag builds the sessions whose deliveries lag
// furthest behind a pair's newest marked round, one per source of lag,
// and holds each to a reference run whose windows span 65 536 rounds:
// the derived span must drop no first delivery the reference counts.
func TestDedupSpanCoversWorstLag(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
		// script steps the machine through the session.
		script func(t *testing.T, m *Machine)
	}{
		{
			// Every pair has two replicas, on two chains over every node in
			// opposite orders: a node near the head of one is near the tail
			// of the other. The near replica reports every other round, so
			// the far one's odd rounds are first deliveries that lag the
			// pair's newest round by up to the node count.
			name: "chain-replicas",
			cfg: func(t *testing.T) Config {
				const n = 150
				sys := lagSystem(t, n, 1, 2)
				order := sys.NodeIDs()
				reversed := make([]model.NodeID, n)
				d := task.NewDemand()
				for i, id := range order {
					reversed[n-1-i] = id
					d.Set(id, 1, 0.5)
					d.Set(id, 2, 1)
				}
				f := plan.NewForest()
				f.Add(chainTree(t, model.NewAttrSet(1), order))
				f.Add(chainTree(t, model.NewAttrSet(2), reversed))
				return Config{
					Sys: sys, Forest: f, Demand: d, Source: BurstyWalk{Seed: 1},
					Resolve: func(a model.AttrID) model.AttrID { return 1 },
				}
			},
			script: func(t *testing.T, m *Machine) { stepN(t, m, 600) },
		},
		{
			// Every frame on every hop is delayed up to 2 000 rounds, so one
			// pair's rounds reach the collector thousands of rounds out of
			// order: far more than a window sized for one delay, not the
			// delays of every hop, would cover.
			name: "chain-delay",
			cfg: func(t *testing.T) Config {
				const n = 4
				sys := lagSystem(t, n, 1)
				d := task.NewDemand()
				for _, id := range sys.NodeIDs() {
					d.Set(id, 1, 1)
				}
				f := plan.NewForest()
				f.Add(chainTree(t, model.NewAttrSet(1), sys.NodeIDs()))
				return Config{
					Sys: sys, Forest: f, Demand: d, Source: BurstyWalk{Seed: 2},
					Chaos: &chaos.Config{DelayProb: 1, MaxDelayRounds: 2000, Seed: 3},
				}
			},
			script: func(t *testing.T, m *Machine) { stepN(t, m, 8000) },
		},
		{
			// A collector outage fills both roots' outboxes. Node 1 is the
			// root of one replica of its pair, which reports every other
			// round, and drains its backlog at once; node 2 relays the other
			// replica, every round, and its budget sends one parked frame a
			// round. So that replica's odd rounds are first deliveries a
			// full outbox behind the pair's newest round.
			name: "outbox-drain",
			cfg: func(t *testing.T) Config {
				const outbox = 5000
				sys, err := model.NewSystem(1e9, cost.Model{PerMessage: 10, PerValue: 1}, []model.Node{
					{ID: 1, Capacity: 1e9, Attrs: []model.AttrID{1, 2}},
					// Receiving node 1's frame and sending one frame of one
					// value cost 11 each.
					{ID: 2, Capacity: 22, Attrs: []model.AttrID{1, 2}},
				})
				if err != nil {
					t.Fatal(err)
				}
				d := task.NewDemand()
				d.Set(1, 1, 0.5)
				d.Set(1, 2, 1)
				f := plan.NewForest()
				f.Add(chainTree(t, model.NewAttrSet(1), []model.NodeID{1}))
				f.Add(chainTree(t, model.NewAttrSet(2), []model.NodeID{2, 1}))
				return Config{
					Sys: sys, Forest: f, Demand: d, Source: BurstyWalk{Seed: 4},
					Resolve:         func(a model.AttrID) model.AttrID { return 1 },
					EnforceCapacity: true, LeafBuffer: outbox,
					Chaos: &chaos.Config{CollectorCrashAt: 100},
				}
			},
			script: func(t *testing.T, m *Machine) {
				stepN(t, m, 100+2*5000+100)
				if got := m.BufferedFrames(); got != 2*5000 {
					t.Fatalf("%d frames parked at the resume, want both outboxes full", got)
				}
				if err := m.ResumeCollector(ResumeState{Epoch: m.Epoch(), Repo: store.New(0)}); err != nil {
					t.Fatal(err)
				}
				stepN(t, m, 6000)
				if got := m.BufferedFrames(); got != 0 {
					t.Fatalf("%d frames still parked", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(span int) (Result, int) {
				m, err := NewMachine(tc.cfg(t))
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = m.Close() }()
				derived := m.cfg.dedup
				if span > 0 {
					setDedupSpan(m, span)
				}
				tc.script(t, m)
				return m.Result(), derived
			}
			want, _ := run(referenceDedupRounds)
			got, span := run(0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("a %d-round window diverged from the %d-round reference:\ngot  %+v\nwant %+v",
					span, referenceDedupRounds, got, want)
			}
			if got.ValuesDelivered == 0 {
				t.Fatal("nothing was delivered")
			}
		})
	}
}

func stepN(t *testing.T, m *Machine, n int) {
	t.Helper()
	if err := m.StepN(n); err != nil {
		t.Fatal(err)
	}
}

// TestDedupSpanRule pins the span rule on the shapes it distinguishes.
func TestDedupSpanRule(t *testing.T) {
	sys := lagSystem(t, 200, 1)
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"ledger-sized", Config{Sys: sys, LeafBuffer: 64}, minDedupRounds},
		{"delay-per-hop", Config{Sys: sys, Chaos: &chaos.Config{DelayProb: 0.5, MaxDelayRounds: 20}},
			2 * 4224},
		{"delay-capped", Config{Sys: sys, Chaos: &chaos.Config{DelayProb: 1, MaxDelayRounds: 1 << 40}}, dedupRounds},
		{"short-run", Config{Sys: sys, Rounds: 500}, 500},
		{"long-run", Config{Sys: sys, Rounds: 1 << 20}, minDedupRounds},
	} {
		if got := dedupSpan(tc.cfg); got != tc.want {
			t.Errorf("%s: span %d, want %d", tc.name, got, tc.want)
		}
	}
}
