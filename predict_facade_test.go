package remo_test

import (
	"errors"
	"fmt"
	"testing"

	"remo"
)

// predictPlanner builds a verification-armed planner with dead-band
// suppression at the given bound, monitoring attrs 1 and 2 everywhere.
func predictPlanner(t *testing.T, eps float64) *remo.Planner {
	t.Helper()
	sys := testSystem(t)
	p := remo.NewPlanner(sys, remo.WithPrediction(eps), remo.WithVerification())
	p.MustAddTask(remo.Task{Name: "cpu", Attrs: []remo.AttrID{1}, Nodes: sys.NodeIDs()})
	p.MustAddTask(remo.Task{Name: "mem", Attrs: []remo.AttrID{2}, Nodes: sys.NodeIDs()})
	return p
}

// checkSuppConserved asserts the suppression counters' conservation
// invariants on a report.
func checkSuppConserved(t *testing.T, rep remo.DeployReport) {
	t.Helper()
	if rep.ValuesSuppressed > rep.ValuesObserved {
		t.Fatalf("suppressed %d > observed %d", rep.ValuesSuppressed, rep.ValuesObserved)
	}
	if rep.ValuesImputed+rep.MarkersLost > rep.ValuesSuppressed {
		t.Fatalf("imputed %d + lost %d > suppressed %d",
			rep.ValuesImputed, rep.MarkersLost, rep.ValuesSuppressed)
	}
	if rep.ImputeBandMax < 0 || rep.ImputeBandMax > 1+1e-9 {
		t.Fatalf("ImputeBandMax %.9f outside [0, 1]", rep.ImputeBandMax)
	}
}

func TestMonitorPredictionSuppressesAndImputes(t *testing.T) {
	p := predictPlanner(t, 0.01)
	mon, err := p.StartMonitor(remo.MonitorConfig{Source: remo.UtilWalk{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := mon.Run(80); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.ValuesSuppressed == 0 || rep.ValuesImputed == 0 || rep.ModelSyncs == 0 {
		t.Fatalf("suppression idle: suppressed=%d imputed=%d syncs=%d",
			rep.ValuesSuppressed, rep.ValuesImputed, rep.ModelSyncs)
	}
	checkSuppConserved(t, rep)
	if err := mon.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Imputation keeps the collector accurate despite the elided traffic.
	if rep.AvgPercentError > 5 {
		t.Fatalf("AvgPercentError %.2f%% too high under suppression", rep.AvgPercentError)
	}
}

// TestPredictionColdResumeSeedsModels cold-resumes a suppressing
// session, lone and sharded: every collector re-arms the replicas the
// journal seeded, so no marker the leaves send is refused for want of a
// model.
func TestPredictionColdResumeSeedsModels(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			p := predictPlanner(t, 0.01)
			mon, err := p.StartMonitor(remo.MonitorConfig{Source: remo.UtilWalk{Seed: 5}, Journal: dir, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := mon.Run(60); err != nil {
				t.Fatal(err)
			}
			if err := mon.Close(); err != nil {
				t.Fatal(err)
			}

			mon2, rr, err := p.ResumeMonitor(dir, remo.MonitorConfig{Source: remo.UtilWalk{Seed: 5}, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer mon2.Close()
			if !rr.PlanMatched {
				t.Fatal("cold resume did not rebuild the pre-crash plan")
			}
			// Both ends were seeded from the journaled snapshots, so
			// imputation resumes well before the first periodic sync cycle
			// completes, and no marker is lost meanwhile.
			if err := mon2.Run(8); err != nil {
				t.Fatal(err)
			}
			rep := mon2.Report()
			if rep.ValuesImputed == 0 {
				t.Fatalf("no imputation within 8 rounds of cold resume: %+v", rep)
			}
			if rep.MarkersLost != 0 {
				t.Fatalf("%d markers lost within 8 rounds of cold resume", rep.MarkersLost)
			}
			checkSuppConserved(t, rep)
			if err := mon2.Verify(); err != nil {
				t.Fatalf("verify after resume: %v", err)
			}
		})
	}
}

func TestPredictionRateDiscountsPlanPacking(t *testing.T) {
	full := predictPlanner(t, 0.01)
	base, err := full.Plan()
	if err != nil {
		t.Fatal(err)
	}

	disc := predictPlanner(t, 0.01)
	for _, a := range []remo.AttrID{1, 2} {
		if err := disc.SetPredictionRate(a, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	discounted, err := disc.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if discounted.TotalCost() >= base.TotalCost() {
		t.Fatalf("discounted plan cost %.1f not below full-rate %.1f",
			discounted.TotalCost(), base.TotalCost())
	}
	if discounted.DemandedPairs() != base.DemandedPairs() {
		t.Fatalf("rate discount changed demanded pairs: %d vs %d",
			discounted.DemandedPairs(), base.DemandedPairs())
	}
}

func TestPredictionSettersRequireArming(t *testing.T) {
	sys := testSystem(t)
	p := remo.NewPlanner(sys)
	if err := p.SetPredictionBound(1, 0.02); !errors.Is(err, remo.ErrPredictionOff) {
		t.Fatalf("SetPredictionBound = %v, want ErrPredictionOff", err)
	}
	if err := p.SetPredictionModel(1, remo.PredictEWMA); !errors.Is(err, remo.ErrPredictionOff) {
		t.Fatalf("SetPredictionModel = %v, want ErrPredictionOff", err)
	}
	if err := p.SetPredictionRate(1, 0.5); !errors.Is(err, remo.ErrPredictionOff) {
		t.Fatalf("SetPredictionRate = %v, want ErrPredictionOff", err)
	}
	if err := p.ObservePredictionRate(1, 0.5); !errors.Is(err, remo.ErrPredictionOff) {
		t.Fatalf("ObservePredictionRate = %v, want ErrPredictionOff", err)
	}
}

func TestWithPredictionPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithPrediction(-1) did not panic")
		}
	}()
	remo.NewPlanner(testSystem(t), remo.WithPrediction(-1))
}
