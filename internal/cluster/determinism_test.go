package cluster

import (
	"reflect"
	"testing"

	"remo/internal/chaos"
	"remo/internal/store"
)

// TestMailboxOrderDeterministic runs the two shapes that put frames
// with an equal (tree key, sender) into one mailbox — a node's parked
// outbox backlog draining after a collector resume, and a delayed frame
// beside a fresh one under suppression — on the worker pool, and holds
// every run to the inline engine's result. The collector's budget and
// replica checks see the drained order, so the drain must not depend on
// how the send phase's goroutines interleaved.
func TestMailboxOrderDeterministic(t *testing.T) {
	crash := equivCase{nodes: 20, attrs: 10, capLo: 150, capHi: 300, seed: 16, rounds: 24,
		chaos: &chaos.Config{CollectorCrashAt: 6}, detect: true}.config(t)
	crash.LeafBuffer = 64
	delay := equivCase{nodes: 20, attrs: 8, capLo: 150, capHi: 300, seed: 17, rounds: 24,
		chaos: &chaos.Config{DropProb: 0.05, DelayProb: 0.2, MaxDelayRounds: 2, Seed: 18}, detect: true}.config(t)
	delay.Source = UtilWalk{Seed: 17}
	delay.Predict = predictSpec(t, 0.05)

	cases := []struct {
		name string
		cfg  Config
		// resumeAt, when positive, resumes the crashed collector before
		// that round.
		resumeAt int
	}{
		{"collector-crash-leaf-buffer", crash, 9},
		{"delay-suppression", delay, 0},
	}
	run := func(t *testing.T, cfg Config, resumeAt int) Result {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = m.Close() }()
		if resumeAt > 0 {
			if err := m.StepN(resumeAt); err != nil {
				t.Fatal(err)
			}
			if err := m.ResumeCollector(ResumeState{Epoch: m.Epoch(), Repo: store.New(0)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.StepN(cfg.Rounds - resumeAt); err != nil {
			t.Fatal(err)
		}
		return m.Result()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 1
			want := run(t, cfg, tc.resumeAt)
			cfg.Workers = 4
			for i := 0; i < 20; i++ {
				if got := run(t, cfg, tc.resumeAt); !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d on 4 workers diverged from the inline engine:\ngot  %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}
