package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"remo/benchmark/rig"
)

// warmUp is how long the clients run before the measured window opens:
// long enough for the first ops to fill the planner's memo and for the
// connections and the stream to settle.
const warmUp = 1500 * time.Millisecond

// setupRepeats is how many times a run starts the SUT; setup_s is the
// median, and the last start is the one the window measures.
const setupRepeats = 3

// Metrics maps a metric name to its value; Samples to how many
// observations a timing rests on.
type Metrics struct {
	Values  map[string]float64
	Samples map[string]int
}

func newMetrics() *Metrics {
	return &Metrics{Values: make(map[string]float64), Samples: make(map[string]int)}
}

func (m *Metrics) set(name string, v float64) { m.Values[name] = v }

// timing records the median and the pct-th percentile of xs under
// name_p50 and name_p<pct>.
func (m *Metrics) timing(name string, xs []float64, pct int) {
	s := sortedCopy(xs)
	p50, tail := name+"_p50", fmt.Sprintf("%s_p%d", name, pct)
	m.Values[p50], m.Values[tail] = quantile(s, 0.5), quantile(s, float64(pct)/100)
	m.Samples[p50], m.Samples[tail] = len(s), len(s)
}

// Outcome is one run's result.
type Outcome struct {
	Metrics   *Metrics
	Attempted int64
	Failed    int64
	// Invalid lists every way the program's outputs were wrong; empty
	// means they checked out.
	Invalid []string
	// Suspect lists every reason to distrust the measurement itself: the
	// generator ran late, the driver was the busy process, too few ops
	// finished. The outputs may be right; the numbers are not evidence.
	Suspect []string
	// Fingerprint is the plan fingerprint and coverage after a fixed
	// number of ops, for the reproducibility check.
	Fingerprint string
}

func (o *Outcome) invalid(format string, args ...any) {
	o.Invalid = append(o.Invalid, fmt.Sprintf(format, args...))
}

func (o *Outcome) suspect(format string, args ...any) {
	o.Suspect = append(o.Suspect, fmt.Sprintf(format, args...))
}

// procCPU returns a process's user+system CPU time, from /proc.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields follow the parenthesized command name, which may hold spaces.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat")
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ut+st) * tick, nil
}

// stolenCPU returns the CPU time the hypervisor has withheld from this
// machine since boot, from the first line of /proc/stat.
func stolenCPU() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// procPeakRSS returns a process's peak resident set in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM")
}

// sut is a running system-under-test process.
type sut struct {
	cmd  *exec.Cmd
	base string
}

// startSUT spawns the SUT and waits for its address line.
func startSUT(bin, optsPath string) (*sut, error) {
	cmd := exec.Command(bin, optsPath)
	cmd.Stderr = os.Stderr
	// The SUT drains when its standard input closes, which the kernel does
	// for us if this process dies; the pipe is never written to.
	if _, err := cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("sut exited before listening: %w", err)
	}
	return &sut{cmd: cmd, base: strings.TrimSpace(line)}, nil
}

// stop drains the SUT with SIGTERM and waits for it to exit.
func (s *sut) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("sut did not drain in 20s")
	}
}

// session is a started SUT with an open subscription.
type session struct {
	proc *sut
	*stream
}

// openSession spawns the SUT, subscribes, and waits for the first round
// event; the elapsed time is the set-up time a user would see.
func openSession(sutBin, optsPath string) (*session, float64, error) {
	t0 := time.Now()
	proc, err := startSUT(sutBin, optsPath)
	if err != nil {
		return nil, 0, err
	}
	st, err := openStream(proc.base)
	if err != nil {
		_ = proc.stop()
		return nil, 0, err
	}
	return &session{proc, st}, time.Since(t0).Seconds(), nil
}

// close ends the subscription and drains the SUT.
func (s *session) close() error {
	s.stream.close()
	return s.proc.stop()
}

// writeInputs writes the spec and options files of one SUT start.
func writeInputs(dir string, in Inputs) (rig.Options, string, error) {
	opts := in.Options
	opts.Spec = filepath.Join(dir, "spec.json")
	opts.Journal = filepath.Join(dir, "journal")
	if err := os.RemoveAll(opts.Journal); err != nil {
		return opts, "", err
	}
	spec, err := json.Marshal(in.Spec)
	if err != nil {
		return opts, "", err
	}
	if err := os.WriteFile(opts.Spec, spec, 0o644); err != nil {
		return opts, "", err
	}
	data, err := json.Marshal(opts)
	if err != nil {
		return opts, "", err
	}
	path := filepath.Join(dir, "options.json")
	return opts, path, os.WriteFile(path, data, 0o644)
}

// runUntraced measures one workload end to end against the SUT process.
func runUntraced(w Workload, seed int64, seconds float64, sutBin, dir string) (*Outcome, error) {
	in := Generate(w, seed)
	opts, optsPath, err := writeInputs(dir, in)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Metrics: newMetrics()}

	var setups []float64
	var ses *session
	for i := 0; i < setupRepeats; i++ {
		if ses != nil {
			if err := ses.close(); err != nil {
				return nil, fmt.Errorf("sut: %w", err)
			}
		}
		if err := os.RemoveAll(opts.Journal); err != nil {
			return nil, err
		}
		var took float64
		if ses, took, err = openSession(sutBin, optsPath); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	out.Metrics.set("setup_s", median(setups))
	out.Metrics.Samples["setup_s"] = len(setups)

	err = measure(w, in, ses.proc.base, ses.proc.cmd.Process.Pid, ses.sub, nil, seconds, out)
	if cerr := ses.close(); cerr != nil && err == nil {
		err = fmt.Errorf("sut: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if !w.Faulty {
		// The drained journal must resume onto the plan that was installed.
		planner, err := opts.Planner()
		if err != nil {
			return nil, err
		}
		mcfg := opts.Monitor()
		mcfg.UseTCP = false
		mon, rep, err := planner.ResumeMonitor(opts.Journal, mcfg)
		if err != nil {
			out.invalid("journal refused on resume: %v", err)
		} else {
			if !rep.PlanMatched {
				out.invalid("resumed plan does not match the journaled one")
			}
			_ = mon.Close()
		}
	}
	return out, nil
}

// measure drives the three clients against base for warm-up plus the
// window and fills out. pid is the process whose CPU and memory count
// as the SUT's; sub is an open subscription; rec is set on a traced run.
func measure(w Workload, in Inputs, base string, pid int, sub *subscriber, rec *Recorder, seconds float64, out *Outcome) error {
	a := newAPI(base, rec)
	defer a.close()
	col := &collector{}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	stopClients := func() {
		cancel()
		wg.Wait()
	}
	defer stopClients()
	wg.Add(2)
	go func() {
		defer wg.Done()
		mutatorLoop(ctx, a, sub, in, w.Think, col, out)
	}()
	first := in.Spec.Tasks[0]
	go func() {
		defer wg.Done()
		reader(ctx, a, w.ReadEvery, [2]int{first.Nodes[0], first.Attrs[0]}, col)
	}()

	time.Sleep(warmUp)
	var rep0, rep1 report
	if err := a.getJSON("/v1/report", &rep0); err != nil {
		return err
	}
	t0 := time.Now()
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	self0, _ := procCPU(os.Getpid())
	stolen0 := stolenCPU()
	cnt0, err := a.counters()
	if err != nil {
		return err
	}
	col.setOpen(true)
	sub.setSampling(true)

	time.Sleep(time.Duration(seconds * float64(time.Second)))

	col.setOpen(false)
	sub.setSampling(false)
	if err := a.getJSON("/v1/report", &rep1); err != nil {
		return err
	}
	window := time.Since(t0).Seconds()
	var plan planWire
	if err := a.getJSON("/v1/plan", &plan); err != nil {
		return err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	self1, _ := procCPU(os.Getpid())
	stolen := 100 * (stolenCPU() - stolen0).Seconds() / window
	rss, err := procPeakRSS(pid)
	if err != nil {
		return err
	}
	stopClients()
	cnt1, err := a.counters()
	if err != nil {
		return err
	}

	m := out.Metrics
	rounds := float64(rep1.Rounds - rep0.Rounds)
	m.set("rounds_per_s", rounds/window)
	m.set("coverage_pct", 100*float64(plan.CollectedPairs)/float64(max(1, plan.DemandedPairs)))
	m.set("pct_error", rep1.AvgPercentError)
	m.set("cpu_ms_per_round", float64(cpu1-cpu0)/1e6/max(1, rounds))
	m.set("rss_mb", rss)

	sub.mu.Lock()
	ages := append([]float64(nil), sub.ages...)
	sub.mu.Unlock()
	m.timing("value_age_ms", ages, 99)

	col.mu.Lock()
	ops, reads := col.ops, col.reads
	col.mu.Unlock()
	if len(ops) < w.OpSkip+w.OpCount/2 {
		out.suspect("only %d ops finished, the op metrics want ops %d..%d", len(ops), w.OpSkip, w.OpSkip+w.OpCount-1)
	}
	ops = ops[min(w.OpSkip, len(ops)):min(w.OpSkip+w.OpCount, len(ops))]
	var applied, firstVal []float64
	var opFailed, noFirst, wantFirst int
	for _, r := range ops {
		if r.failed {
			opFailed++
			continue
		}
		applied = append(applied, r.appliedMS)
		if r.firstMS > 0 {
			firstVal = append(firstVal, r.firstMS)
		}
		if r.firstMS > 0 || r.noFirstVal {
			wantFirst++
		}
		if r.noFirstVal {
			noFirst++
		}
	}
	m.timing("op_applied_ms", applied, 90)
	m.timing("first_value_ms", firstVal, 90)
	m.timing("read_ms", reads.latestMS, 99)

	// Generator self-checks and the numbers behind them.
	late := quantile(sortedCopy(reads.lateMS), 0.99)
	driverShare := 100 * float64(self1-self0) / float64(max(1, cpu1-cpu0))
	m.set("gen.lateness_ms_p99", late)
	m.set("gen.driver_cpu_pct_of_sut", driverShare)
	m.set("gen.stolen_cpu_pct", stolen)
	m.set("gen.sse_events_per_s", (cnt1["remo_stream_events_total"]-cnt0["remo_stream_events_total"])/window)
	m.set("gen.ops", float64(len(ops)))
	m.set("gen.reads", float64(len(reads.latestMS)))
	m.set("gen.first_value_missing", float64(noFirst))
	m.set("serve.state_ms", reads.stateMS)
	m.set("serve.latest_bytes", float64(reads.bytes)/float64(max(1, len(reads.latestMS))))
	if late > 10 {
		out.suspect("generator ran late: p99 lateness %.1f ms > 10 ms", late)
	}
	if stolen > 5 {
		out.suspect("the hypervisor withheld %.0f%% of a CPU during the window", stolen)
	}
	if driverShare > 100 {
		out.suspect("the driver, not the SUT, was the busy process (%.0f%% of SUT CPU)", driverShare)
	}

	// Failures against attempts.
	dropped := cnt1["remo_stream_dropped_total"]
	roundErrs := cnt1["remo_round_errors_total"]
	events := cnt1["remo_stream_events_total"]
	out.Attempted = a.requests.Load() + int64(len(ops)) + int64(wantFirst) + int64(events+dropped) + int64(rep1.Rounds)
	out.Failed = a.failures.Load() + int64(opFailed) + int64(dropped+roundErrs) + int64(reads.bad)

	// Output checks.
	if v := cnt1["remo_verify_failures_total"]; v > 0 {
		out.invalid("%v live verification failures", v)
	}
	if dropped > 0.001*events {
		out.invalid("%v of %v stream events dropped", dropped, events)
	}
	if cnt1["remo_ops_enqueued_total"] != cnt1["remo_ops_succeeded_total"]+cnt1["remo_ops_failed_total"] {
		out.invalid("ops enqueued %v != succeeded %v + failed %v", cnt1["remo_ops_enqueued_total"],
			cnt1["remo_ops_succeeded_total"], cnt1["remo_ops_failed_total"])
	}
	if wantFirst > 0 && noFirst*2 > wantFirst {
		out.suspect("%d of %d creates and modifies produced no value of a new pair", noFirst, wantFirst)
	}
	// Values precede their round's event on the stream, so the counts at
	// the two boundary round events bracket exactly the rounds the report
	// counted: every value the collector accepted (plus, under
	// suppression, every value it imputed) must have reached the
	// subscriber.
	v0, ok0 := sub.valuesBefore(rep0.Rounds-1, 5*time.Second)
	v1, ok1 := sub.valuesBefore(rep1.Rounds-1, 5*time.Second)
	streamed := float64(v1 - v0)
	m.set("values_per_s", streamed/window)
	delivered := float64(rep1.ValuesDelivered - rep0.ValuesDelivered)
	imputable := float64(rep1.ValuesSuppressed - rep0.ValuesSuppressed)
	if !ok0 || !ok1 {
		out.invalid("stream never showed the window's boundary rounds")
	} else if streamed < 0.99*delivered || streamed > 1.01*(delivered+imputable) {
		out.invalid("stream delivered %v values, report counted %v (+%v suppressed)", streamed, delivered, imputable)
	}
	if sub.err != nil {
		out.invalid("stream: %v", sub.err)
	}
	return nil
}
