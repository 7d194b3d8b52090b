package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSynthetic(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "15", "-attrs", "6", "-tasks", "8", "-rounds", "8",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"plan:", "emulation: 8 rounds", "coverage:", "avg % error"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestRunSchemes(t *testing.T) {
	for _, scheme := range []string{"remo", "star", "chain"} {
		var out strings.Builder
		err := run(context.Background(), []string{
			"-nodes", "12", "-attrs", "4", "-tasks", "5", "-rounds", "5",
			"-scheme", scheme,
		}, &out)
		if err != nil {
			t.Errorf("%s: %v", scheme, err)
		}
	}
	var out strings.Builder
	if err := run(context.Background(), []string{"-scheme", "bogus"}, &out); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestRunOverTCP(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "8", "-attrs", "3", "-tasks", "4", "-rounds", "5", "-tcp",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loopback TCP") {
		t.Errorf("TCP transport not reported:\n%s", out.String())
	}
}

func TestRunWithTrace(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "6", "-attrs", "2", "-tasks", "3", "-rounds", "4", "-trace", "50",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace:") || !strings.Contains(out.String(), "send") {
		t.Errorf("trace output missing:\n%s", out.String())
	}
}

func TestChaosFlagRunsSelfHealingSession(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "24", "-attrs", "6", "-tasks", "8", "-rounds", "18",
		"-chaos", "0.2", "-suspicion", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"self-healing:", "failures detected", "repair:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestChaosDropFlag(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "12", "-attrs", "4", "-tasks", "5", "-rounds", "10",
		"-chaos-drop", "0.2", "-chaos-delay", "0.1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "emulation: 10 rounds") {
		t.Errorf("emulation summary missing:\n%s", out.String())
	}
}

func TestVerifyFlag(t *testing.T) {
	// Plain deploy with verification armed.
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "15", "-attrs", "6", "-tasks", "8", "-rounds", "8", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verification:") {
		t.Errorf("output lacks the verification line:\n%s", out.String())
	}

	// Self-healing chaos session with verification armed: the plan, the
	// repaired hot-swaps, and the live results are all cross-checked.
	out.Reset()
	err = run(context.Background(), []string{
		"-nodes", "20", "-attrs", "6", "-tasks", "10", "-rounds", "12",
		"-chaos", "0.2", "-suspicion", "2", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "verification:") || !strings.Contains(got, "self-healing:") {
		t.Errorf("output lacks verification or self-healing lines:\n%s", got)
	}
}

// small runs a validation case on a small synthetic system: the cases
// a session refuses are only refused after planning.
func small(args ...string) []string {
	return append([]string{"-nodes", "12", "-attrs", "4", "-tasks", "5"}, args...)
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero suspicion", []string{"-suspicion", "0"}, "-suspicion must be at least 1"},
		{"negative suspicion", []string{"-suspicion", "-2"}, "-suspicion must be at least 1"},
		{"zero chaos", []string{"-chaos", "0"}, "rate in (0, 1]"},
		{"negative chaos", []string{"-chaos", "-0.5"}, "rate in (0, 1]"},
		{"overshooting drop", []string{"-chaos-drop", "1.5"}, "rate in (0, 1]"},
		{"zero delay", []string{"-chaos-delay", "0"}, "rate in (0, 1]"},
		{"zero rounds", []string{"-rounds", "0"}, "-rounds must be at least 1"},
		{"collector crash without journal", []string{"-chaos-collector", "5"}, "requires a journal"},
		{"collector crash past the run", []string{"-rounds", "10", "-journal", t.TempDir(), "-chaos-collector", "10"}, "must fall inside"},
		{"zero collector crash round", []string{"-journal", t.TempDir(), "-chaos-collector", "0"}, "at least 1"},
		{"zero nodes", []string{"-nodes", "0"}, "-nodes must be at least 1"},
		{"negative nodes", []string{"-nodes", "-2"}, "-nodes must be at least 1"},
		{"zero attrs", []string{"-attrs", "0"}, "-attrs must be at least 1"},
		{"negative attrs", []string{"-attrs", "-1"}, "-attrs must be at least 1"},
		{"negative tasks", []string{"-tasks", "-1"}, "-tasks must be non-negative"},
		{"negative trace", []string{"-trace", "-1"}, "-trace must be non-negative"},
	}
	for _, tc := range cases {
		var out strings.Builder
		err := run(context.Background(), small(tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// Valid rates at the boundary are accepted.
	var out strings.Builder
	if err := run(context.Background(), []string{
		"-nodes", "10", "-attrs", "3", "-tasks", "4", "-rounds", "6",
		"-chaos-drop", "1", "-suspicion", "1",
	}, &out); err != nil {
		t.Errorf("boundary rates rejected: %v", err)
	}
}

func TestCollectorCrashResumeRun(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "20", "-attrs", "5", "-tasks", "8", "-rounds", "30",
		"-journal", t.TempDir(), "-chaos-collector", "8", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"collector crashed at round 8",
		"resumed from journal",
		"durability: 1 collector restart(s)",
		"verification:",
		"emulation: 30 rounds",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestJournalFlagAlone(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "10", "-attrs", "3", "-tasks", "4", "-rounds", "8",
		"-journal", t.TempDir(), "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "emulation: 8 rounds") {
		t.Errorf("emulation summary missing:\n%s", out.String())
	}
}

func TestShardCrashResumeRun(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "20", "-attrs", "5", "-tasks", "8", "-rounds", "30",
		"-shards", "4", "-journal", t.TempDir(), "-chaos-shard", "0", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"shard 0 crashed at round 10",
		"resumed from the session journal",
		"sharding: 4 shards (0 down)",
		"re-home:",
		"verification:",
		"emulation: 30 rounds",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestShardsFlagAlone(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "12", "-attrs", "4", "-tasks", "5", "-rounds", "10",
		"-shards", "3", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "sharding: 3 shards (0 down)") {
		t.Errorf("sharding summary missing:\n%s", got)
	}
	if !strings.Contains(got, "emulation: 10 rounds") {
		t.Errorf("emulation summary missing:\n%s", got)
	}
}

func TestShardFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero shards", []string{"-shards", "0"}, "-shards must be at least 1"},
		{"negative shards", []string{"-shards", "-2"}, "-shards must be at least 1"},
		{"shard crash without shards", []string{"-journal", t.TempDir(), "-chaos-shard", "0"}, "requires a sharded tier"},
		{"shard crash out of range", []string{"-shards", "4", "-journal", t.TempDir(), "-chaos-shard", "4"}, "in [0, 4)"},
		{"negative shard crash", []string{"-shards", "4", "-journal", t.TempDir(), "-chaos-shard", "-1"}, "in [0, 4)"},
		{"shard crash without journal", []string{"-shards", "4", "-chaos-shard", "1"}, "requires a journal"},
		{"collector crash on sharded tier", []string{"-shards", "4", "-journal", t.TempDir(), "-chaos-collector", "5"}, "root never dies"},
	}
	for _, tc := range cases {
		var out strings.Builder
		err := run(context.Background(), small(tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestPredictFlagRunsSuppression(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "15", "-attrs", "5", "-tasks", "6", "-rounds", "40",
		"-predict", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"suppression:", "values elided", "imputed", "model syncs", "verification:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestPredictFlagWithChaosDropAndSync(t *testing.T) {
	// Dropped frames kill markers with them; the session must ride it out
	// (re-syncs re-lock the replicas) and still report the run.
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "15", "-attrs", "5", "-tasks", "6", "-rounds", "30",
		"-predict", "-predict-eps", "0.05", "-predict-sync", "8",
		"-chaos-drop", "0.15", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "suppression:") || !strings.Contains(got, "emulation: 30 rounds") {
		t.Errorf("suppression or emulation summary missing:\n%s", got)
	}
}

func TestPredictFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"eps without predict", []string{"-predict-eps", "0.02"}, "requires -predict"},
		{"sync without predict", []string{"-predict-sync", "8"}, "requires -predict"},
		{"zero eps", []string{"-predict", "-predict-eps", "0"}, "(0, 1]"},
		{"negative eps", []string{"-predict", "-predict-eps", "-0.01"}, "(0, 1]"},
		{"overshooting eps", []string{"-predict", "-predict-eps", "1.5"}, "(0, 1]"},
		{"zero sync", []string{"-predict", "-predict-sync", "0"}, "at least 1 round"},
		{"negative sync", []string{"-predict", "-predict-sync", "-4"}, "at least 1 round"},
	}
	for _, tc := range cases {
		var out strings.Builder
		err := run(context.Background(), tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// Boundary values are accepted: a 100% band and a 1-round cadence.
	var out strings.Builder
	if err := run(context.Background(), []string{
		"-nodes", "10", "-attrs", "3", "-tasks", "4", "-rounds", "6",
		"-predict", "-predict-eps", "1", "-predict-sync", "1",
	}, &out); err != nil {
		t.Errorf("boundary prediction flags rejected: %v", err)
	}
}

func TestRegionLossRun(t *testing.T) {
	// Partition r1 permanently: the detector declares the region dead,
	// repair re-homes its trees, and the surviving regions hold the
	// coverage floor (machine-checked by VerifyRegionCoverage).
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "30", "-attrs", "6", "-tasks", "15", "-rounds", "24",
		"-regions", "3", "-chaos-region", "1", "-suspicion", "2", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"regions: 3, coverage floor 90% held",
		"r0", "r1", "r2",
		"self-healing:", "repair:",
		"verification:",
		"emulation: 24 rounds",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestRegionLinkFlapRun(t *testing.T) {
	// Flap the r0-r1 link over the middle third: the far side dies and
	// reintegrates, and the floor still holds at the end.
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "20", "-attrs", "5", "-tasks", "8", "-rounds", "24",
		"-regions", "2", "-chaos-link", "r0-r1", "-suspicion", "2", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"regions: 2", "self-healing:", "reintegrate:", "verification:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestRegionsFlagAlone(t *testing.T) {
	// A healthy region-labeled run reports per-region coverage and
	// passes the default floor.
	var out strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "18", "-attrs", "5", "-tasks", "8", "-rounds", "8",
		"-regions", "3", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "regions: 3, coverage floor 90% held") {
		t.Errorf("region summary missing:\n%s", got)
	}
}

func TestRegionFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero regions", []string{"-regions", "0"}, "-regions must be at least 1"},
		{"negative regions", []string{"-regions", "-3"}, "-regions must be at least 1"},
		{"regions with spec", []string{"-spec", "problem.json", "-regions", "3"}, "spec files carry their own region labels"},
		{"partition without regions", []string{"-chaos-region", "1"}, "which the system lacks"},
		{"partition out of range", []string{"-regions", "3", "-chaos-region", "3"}, "which the system lacks"},
		{"negative partition", []string{"-regions", "3", "-chaos-region", "-1"}, "in [0, 3)"},
		{"flap without regions", []string{"-chaos-link", "r0-r1"}, "which the system lacks"},
		{"flap out of range", []string{"-regions", "2", "-chaos-link", "r0-r5"}, "which the system lacks"},
		{"malformed link", []string{"-regions", "3", "-chaos-link", "east/west"}, "like r0-r1"},
		{"self link", []string{"-regions", "3", "-chaos-link", "r1-r1"}, "two distinct regions"},
		{"floor without regions", []string{"-region-floor", "80"}, "requires -regions"},
		{"overshooting floor", []string{"-regions", "3", "-region-floor", "150"}, "in [0, 100]"},
	}
	for _, tc := range cases {
		var out strings.Builder
		err := run(context.Background(), small(tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestRunInterrupted(t *testing.T) {
	// A cancelled lifecycle context stops the run before the emulation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, []string{"-nodes", "10", "-attrs", "3", "-tasks", "4", "-rounds", "5"}, &out)
	if err == nil || !strings.Contains(err.Error(), "interrupted before the emulation") {
		t.Fatalf("err = %v, want interruption notice", err)
	}
}

// TestUsageLinesRun runs every usage line of the package comment as
// written, with its journal directory and spec file under a temp dir.
func TestUsageLinesRun(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(t.TempDir(), "problem.json")
	if err := os.WriteFile(spec, []byte(`{
		"centralCapacity": 500, "perMessage": 10, "perValue": 1,
		"nodes": [{"id": 1, "capacity": 120}, {"id": 2, "capacity": 120}, {"id": 3, "capacity": 120}],
		"tasks": [{"name": "cpu", "attrs": [1], "nodes": [1, 2, 3]}, {"name": "mem", "attrs": [2], "nodes": [1, 2]}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(string(src), "\n") {
		cmd, ok := strings.CutPrefix(line, "//\tremo-sim ")
		if !ok {
			continue
		}
		lines++
		args := strings.Fields(cmd)
		for i, a := range args {
			switch a {
			case "/tmp/j":
				args[i] = filepath.Join(t.TempDir(), "j")
			case "problem.json":
				args[i] = spec
			}
		}
		var out strings.Builder
		if err := run(context.Background(), args, &out); err != nil {
			t.Errorf("remo-sim %s: %v", cmd, err)
		}
	}
	if lines == 0 {
		t.Fatal("found no usage lines in the package comment")
	}
}
