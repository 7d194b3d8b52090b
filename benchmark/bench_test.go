package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The highest percentile a sample supports is the highest with at least
// ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "tick", Start: 0, End: 100},
		// Two children overlapping each other (parallel Send calls): their
		// union 10..50 counts once.
		{ID: 2, Parent: 1, Name: "send", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "send", Start: 30, End: 50},
		// A child sticking out of its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		// A grandchild takes from its parent only.
		{ID: 5, Parent: 2, Name: "encode", Start: 10, End: 15},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestRecorderKeepsParentAndTrace(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin("op", 0, 7)
	child := rec.Begin("admit", root, 7)
	rec.End(child)
	open := rec.Begin("never closed", root, 7)
	_ = open
	rec.End(root)
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2", len(spans))
	}
	if spans[1].Parent != root || spans[1].Trace != 7 || spans[1].End < spans[1].Start {
		t.Errorf("child span = %+v", spans[1])
	}
}

// The same seed must give the same inputs, and another seed others.
func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, _ := json.Marshal(Generate(w, 3))
		b, _ := json.Marshal(Generate(w, 3))
		c, _ := json.Marshal(Generate(w, 4))
		if string(a) != string(b) {
			t.Errorf("%s: seed 3 generated two different inputs", w.Name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 3 and 4 generated the same inputs", w.Name)
		}
	}
}

// The schedule must be admissible: creates name new tasks, modifies and
// removes name live ones, and the demand always fits the collector.
func TestGeneratedScheduleIsAdmissible(t *testing.T) {
	for _, w := range workloads {
		in := Generate(w, 1)
		if len(in.Ops) < w.MaxOps {
			t.Errorf("%s: %d ops, want at least %d", w.Name, len(in.Ops), w.MaxOps)
		}
		refs := newDemandRefs(in)
		budget := int(in.Spec.CentralCapacity - in.Spec.PerMessage)
		live := make(map[string]bool)
		for i, op := range in.Ops {
			switch {
			case op.Kind == "create" && live[op.Name], op.Kind != "create" && !live[op.Name]:
				t.Fatalf("%s: op %d %s %s against live=%v", w.Name, i, op.Kind, op.Name, live[op.Name])
			}
			live[op.Name] = op.Kind != "remove"
			refs.apply(op)
			demanded := 0
			for _, n := range refs.refs {
				if n > 0 {
					demanded++
				}
			}
			if demanded > budget {
				t.Fatalf("%s: op %d demands %d pairs, admission budget %d", w.Name, i, demanded, budget)
			}
		}
	}
}

func TestDemandRefsReportsOnlyNewPairs(t *testing.T) {
	refs := newDemandRefs(Inputs{})
	if got := refs.apply(Op{Kind: "create", Name: "a", Attrs: []int{1, 2}, Nodes: []int{1}}); len(got) != 2 {
		t.Fatalf("first task: %d new pairs, want 2", len(got))
	}
	got := refs.apply(Op{Kind: "create", Name: "b", Attrs: []int{2, 3}, Nodes: []int{1}})
	if _, ok := got[pairKey(1, 3)]; len(got) != 1 || !ok {
		t.Fatalf("overlapping task: new pairs %v, want only (1,3)", got)
	}
	refs.apply(Op{Kind: "remove", Name: "a"})
	if got := refs.apply(Op{Kind: "modify", Name: "b", Attrs: []int{1}, Nodes: []int{1}}); len(got) != 1 {
		t.Fatalf("after remove: %d new pairs, want 1", len(got))
	}
}

func TestIntAfter(t *testing.T) {
	line := []byte(`data: {"node":12,"attr":3,"round":456,"value":1.5}`)
	if n, a, r := intAfter(line, `"node":`), intAfter(line, `"attr":`), intAfter(line, `"round":`); n != 12 || a != 3 || r != 456 {
		t.Errorf("parsed %d %d %d", n, a, r)
	}
	if got := intAfter(line, `"missing":`); got != -1 {
		t.Errorf("missing key = %d, want -1", got)
	}
}

// smoke shrinks a workload to a system that plans in milliseconds, so
// the whole path can run in a test: the clients, rates and faults stay.
func smoke(w Workload) Workload {
	w.Nodes, w.Attrs, w.Tasks, w.AttrsPerTask, w.NodesPerTask = 20, 10, 8, 3, 6
	w.Central, w.OpAttrs, w.OpNodes = 600, 3, 6
	w.Think, w.OpSkip, w.OpCount = 100*time.Millisecond, 1, 2
	return w
}

// TestSmoke runs every workload for two seconds, end to end against the
// SUT process and traced, and wants every metric the manifest names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the SUT")
	}
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sutBin := filepath.Join(dir, "sut")
	if out, err := exec.Command("go", "build", "-o", sutBin, "./sut").CombinedOutput(); err != nil {
		t.Fatalf("build sut: %v\n%s", err, out)
	}
	for _, w := range workloads {
		w := smoke(w)
		out, err := runUntraced(w, 1, 2, sutBin, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if out.Attempted < 1 || out.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, out.Attempted, out.Failed)
		}
		for _, e := range man.EndToEnd {
			if v, ok := out.Metrics.Values[e.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w.Name, e.Name, v)
			}
		}
		traced, err := runTraced(w, 1, 2, dir, filepath.Join(dir, "out"))
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, e := range man.PerLayer {
			if _, ok := traced.Metrics.Values[e.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, e.Name)
			}
		}
		for _, why := range traced.Invalid {
			if strings.Contains(why, "unexplained") {
				t.Errorf("%s: %s", w.Name, why)
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, "out", "trace-"+w.Name+".json"))
		var spans []Span
		if err == nil {
			err = json.Unmarshal(data, &spans)
		}
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: span file: %d spans, %v", w.Name, len(spans), err)
		}
	}
}
