// Command benchmark is the repo's performance ledger: it drives the
// remo service end to end — loopback HTTP → admission queue →
// incremental replanner → InstallDiff → tree rounds over loopback TCP →
// collector → store/journal → SSE — and, with -trace 1, times each
// layer's public functions on the same inputs. See README.md.
//
//	bash benchmark/run.sh -seed 1                 every workload, untraced
//	bash benchmark/run.sh -seed 1 -trace 1        every workload, traced
//	bash benchmark/run.sh -check                  the untraced suite twice
//	bash benchmark/run.sh --workload task-churn --seed 3 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// manifest is BENCHMARK.json: the metric lists, units and bounds.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printMetrics prints every metric as "workload metric value unit".
func printMetrics(w string, m *Metrics, units map[string]string) {
	names := make([]string, 0, len(m.Values))
	for name := range m.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("%s %s %.6g %s", w, name, m.Values[name], units[name])
		if n, ok := m.Samples[name]; ok {
			line += fmt.Sprintf(" n=%d (highest supported percentile p%g)", n, supportedTail(n))
		}
		fmt.Println(line)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "run one workload and end with the result line (default: every workload)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		check    = flag.Bool("check", false, "run the untraced suite twice and fail if a metric moves by more than its bound")
		sutBin   = flag.String("sut", ".bench_build/bin/sut", "the SUT binary")
		work     = flag.String("work", ".bench_build", "directory for run files and traces")
		manPath  = flag.String("manifest", "BENCHMARK.json", "the benchmark manifest")
	)
	flag.Parse()
	man, err := loadManifest(*manPath)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	units := make(map[string]string)
	for _, e := range man.EndToEnd {
		units[e.Name] = e.Unit
	}
	for _, e := range man.PerLayer {
		units[e.Name] = e.Unit
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{man: man, units: units, sut: *sutBin, dir: dir, out: filepath.Join(*work, "out"), seconds: *seconds}

	switch {
	case *check:
		return b.check(*seed)
	case *workload == "":
		for _, w := range workloads {
			if _, err := b.one(w, *seed, *trace == 1); err != nil {
				return err
			}
		}
		return nil
	}
	w, ok := workloadByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	out, err := b.one(w, *seed, *trace == 1)
	if err != nil {
		return err
	}
	res := result{
		Correct:   len(out.Invalid) == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metricValue),
	}
	if *trace == 1 {
		for _, e := range man.PerLayer {
			res.Metrics[e.Name] = metricValue{out.Metrics.Values[e.Name], e.Unit}
		}
	} else {
		for _, e := range man.EndToEnd {
			res.Metrics[e.Name] = metricValue{out.Metrics.Values[e.Name], e.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// bench holds what every run shares.
type bench struct {
	man     manifest
	units   map[string]string
	sut     string
	dir     string
	out     string
	seconds float64
}

// one runs a workload, traced or not, and prints its metrics.
func (b *bench) one(w Workload, seed int64, traced bool) (*Outcome, error) {
	var (
		out *Outcome
		err error
	)
	if traced {
		out, err = runTraced(w, seed, b.seconds, b.dir, b.out)
	} else {
		out, err = runUntraced(w, seed, b.seconds, b.sut, b.dir)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	printMetrics(w.Name, out.Metrics, b.units)
	fmt.Printf("%s attempted %d failed %d\n", w.Name, out.Attempted, out.Failed)
	if out.Fingerprint != "" {
		fmt.Printf("%s plan_after_%d_ops %s\n", w.Name, fingerprintOps, out.Fingerprint)
	}
	for _, why := range out.Invalid {
		fmt.Printf("%s INVALID %s\n", w.Name, why)
	}
	for _, why := range out.Suspect {
		fmt.Printf("%s SUSPECT %s\n", w.Name, why)
	}
	return out, nil
}

// check runs the untraced suite twice on the same build and fails if an
// end-to-end metric's second reading is worse than its first by more
// than the metric's own bound. It prints every metric's relative
// difference so bounds can be tightened later.
func (b *bench) check(seed int64) error {
	bad := 0
	for _, w := range workloads {
		var runs [2]*Outcome
		for i := range runs {
			out, err := b.one(w, seed, false)
			if err != nil {
				return err
			}
			bad += len(out.Invalid) + len(out.Suspect)
			runs[i] = out
		}
		// One closed-loop mutator makes the SetTasks sequence, and so the
		// plan, a function of the seed — unless round-indexed faults reshape
		// the forest at times that depend on how fast rounds ran.
		if !w.Faulty && runs[0].Fingerprint != runs[1].Fingerprint {
			fmt.Printf("%s CHECK plan after %d ops differs between runs of one seed: %s vs %s\n",
				w.Name, fingerprintOps, runs[0].Fingerprint, runs[1].Fingerprint)
			bad++
		}
		for _, e := range b.man.EndToEnd {
			x, y := runs[0].Metrics.Values[e.Name], runs[1].Metrics.Values[e.Name]
			worse := (y - x) / x
			if e.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "WORSE THAN BOUND"
				bad++
			}
			fmt.Printf("%s CHECK %s %.6g -> %.6g %s (%+.1f%%, bound %.0f%%) %s\n",
				w.Name, e.Name, x, y, e.Unit, 100*(y-x)/x, 100*e.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("check: %d findings", bad)
	}
	return nil
}
