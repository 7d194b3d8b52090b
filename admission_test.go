package remo_test

import (
	"errors"
	"testing"

	"remo"
)

// TestAdmissionBudget pins the hard bound: floor((central − C)/a), with
// the degenerate free-payload and over-committed edges.
func TestAdmissionBudget(t *testing.T) {
	mk := func(central float64, cost remo.CostModel) *remo.Planner {
		t.Helper()
		sys, err := remo.NewSystem(remo.SystemSpec{
			CentralCapacity: central,
			Cost:            cost,
			Nodes: []remo.Node{
				{ID: 1, Capacity: 100, Attrs: []remo.AttrID{1}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return remo.NewPlanner(sys)
	}

	if got := mk(600, remo.CostModel{PerMessage: 10, PerValue: 1}).AdmissionBudget(); got != 590 {
		t.Fatalf("budget = %d, want 590", got)
	}
	if got := mk(25, remo.CostModel{PerMessage: 10, PerValue: 2}).AdmissionBudget(); got != 7 {
		t.Fatalf("budget = %d, want floor(15/2) = 7", got)
	}
	if got := mk(5, remo.CostModel{PerMessage: 10, PerValue: 1}).AdmissionBudget(); got != 0 {
		t.Fatalf("budget = %d, want 0 when C alone exceeds capacity", got)
	}
}

// TestCheckAdmission pins the typed rejection: over-budget wraps
// ErrInfeasible, within-budget is nil.
func TestCheckAdmission(t *testing.T) {
	sys := testSystem(t) // central 600, C=10, a=1 → budget 590
	p := remo.NewPlanner(sys)
	if err := p.CheckAdmission(590); err != nil {
		t.Fatalf("within budget rejected: %v", err)
	}
	err := p.CheckAdmission(591)
	if err == nil {
		t.Fatal("over budget admitted")
	}
	if !errors.Is(err, remo.ErrInfeasible) {
		t.Fatalf("rejection error = %v, want ErrInfeasible", err)
	}
}

// TestMonitorServeHooks pins the serve-mode facade additions:
// CollectorDown, JournalDir, and a forced Checkpoint a resume accepts.
func TestMonitorServeHooks(t *testing.T) {
	sys := testSystem(t)
	dir := t.TempDir()
	p := remo.NewPlanner(sys)
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})

	mon, err := p.StartMonitor(remo.MonitorConfig{Seed: 7, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if mon.JournalDir() != dir {
		t.Fatalf("JournalDir = %q, want %q", mon.JournalDir(), dir)
	}
	if mon.CollectorDown() {
		t.Fatal("fresh session reports collector down")
	}
	if err := mon.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := mon.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fp := mon.Fingerprint()
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mon.Checkpoint(); !errors.Is(err, remo.ErrMonitorClosed) {
		t.Fatalf("checkpoint after close = %v, want ErrMonitorClosed", err)
	}

	// The forced checkpoint (plus the close seal) must leave a journal a
	// cold resume accepts with the same plan identity.
	mon2, rep, err := p.ResumeMonitor(dir, remo.MonitorConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()
	if !rep.PlanMatched || mon2.Fingerprint() != fp {
		t.Fatalf("resume lost plan identity: matched=%v fp=%d want %d",
			rep.PlanMatched, mon2.Fingerprint(), fp)
	}
	if rep.RecoveredSamples == 0 {
		t.Fatal("resume recovered no samples")
	}

	// Checkpoint on a non-durable session is a typed error, not a panic.
	p2 := remo.NewPlanner(sys)
	p2.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: allNodes(sys)})
	mon3, err := p2.StartMonitor(remo.MonitorConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mon3.Close()
	if err := mon3.Checkpoint(); err == nil {
		t.Fatal("checkpoint without journaling succeeded")
	}
	if got := mon3.JournalDir(); got != "" {
		t.Fatalf("non-durable JournalDir = %q, want empty", got)
	}
}
