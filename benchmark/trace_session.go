package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"remo"
	"remo/benchmark/rig"
)

// hookClock estimates the time spent in a hook that runs thousands of
// times a round: it times every 32nd call and scales, because reading
// the clock twice costs about as much as the hooks it would time.
type hookClock struct {
	calls atomic.Int64
	ns    atomic.Int64
}

const hookSample = 32

// begin counts a call and returns when it started, or the zero time for
// a call that is not timed; end takes what begin returned.
func (h *hookClock) begin() time.Time {
	if h.calls.Add(1)%hookSample != 0 {
		return time.Time{}
	}
	return time.Now()
}

func (h *hookClock) end(t0 time.Time) {
	if !t0.IsZero() {
		h.ns.Add(int64(time.Since(t0)) * hookSample)
	}
}

// take returns and clears the calls and estimated nanoseconds so far.
func (h *hookClock) take() (calls, ns int64) { return h.calls.Swap(0), h.ns.Swap(0) }

// timedSource wraps the session's value source.
type timedSource struct {
	inner remo.ValueSource
	clock *hookClock
}

func (s timedSource) Value(n remo.NodeID, a remo.AttrID, round int) float64 {
	defer s.clock.end(s.clock.begin())
	return s.inner.Value(n, a, round)
}

// traceSession is T2: a loop the benchmark owns on remo.Monitor, with
// the workload's spec, op schedule, TCP overlay, journal, shards and
// chaos. Each tick is a span whose children — set_tasks, run_round,
// verify, idle — must cover it: the loop does nothing else. set_tasks
// has the callee-reported planning time as its child, so its self time
// is install plus journal; run_round has the estimated time inside the
// Source and OnValue hooks as children.
func traceSession(w Workload, in Inputs, opts rig.Options, seconds float64, rec *Recorder, out *Outcome) error {
	planner, err := opts.Planner()
	if err != nil {
		return err
	}
	cfg := opts.Monitor()
	srcClock, valClock := &hookClock{}, &hookClock{}
	if cfg.Source == nil {
		cfg.Source = remo.BurstyWalk{Seed: cfg.Seed}
	}
	cfg.Source = timedSource{cfg.Source, srcClock}
	var sink float64
	cfg.OnValue = func(_ remo.Pair, _ int, v float64) {
		t0 := valClock.begin()
		sink += v
		valClock.end(t0)
	}
	mon, err := planner.StartMonitor(cfg)
	if err != nil {
		return err
	}
	defer mon.Close()

	tasks := make(map[string]remo.Task)
	for _, t := range planner.Tasks() {
		tasks[t.Name] = t
	}
	// The mutation cadence mirrors the service run's closed loop: a new
	// op once the previous one has had three rounds to show its first
	// value and the think time has passed.
	tick := time.Duration(w.RoundEveryMS) * time.Millisecond
	nextOp, sinceOp := 0, 0
	lastOp := time.Now()
	var adaptMsgs, rebuilt, setTasks int
	var sourceCalls, valueCalls int64
	t0 := time.Now()
	loopStart := rec.now()
	rounds := 0
	for time.Since(t0).Seconds() < seconds {
		rounds++
		tk := rec.Begin("tick", 0, rounds)
		due := t0.Add(time.Duration(rounds) * tick)
		if sinceOp >= 3 && time.Since(lastOp) >= w.Think && nextOp < len(in.Ops) {
			op := in.Ops[nextOp]
			nextOp, sinceOp = nextOp+1, 0
			if op.Kind == "remove" {
				delete(tasks, op.Name)
			} else {
				tasks[op.Name] = taskOf(op)
			}
			list := make([]remo.Task, 0, len(tasks))
			for _, t := range tasks {
				list = append(list, t)
			}
			id := rec.Begin("set_tasks", tk, rounds)
			start := rec.now()
			rep, err := mon.SetTasks(list)
			rec.End(id)
			if err != nil {
				return err
			}
			rec.Add("plan_time", id, rounds, start, start+int64(rep.PlanTime))
			adaptMsgs, rebuilt, setTasks = adaptMsgs+rep.AdaptMessages, rebuilt+rep.TreesRebuilt, setTasks+1
			lastOp = time.Now()
		}
		id := rec.Begin("run_round", tk, rounds)
		start := rec.now()
		err := mon.Run(1)
		rec.End(id)
		if err != nil {
			return fmt.Errorf("round %d: %w", rounds, err)
		}
		sinceOp++
		// The hooks' estimated time, laid end to end from the round's start
		// and clipped to the round: an estimate of how much of it they took.
		end := rec.now()
		edge := start
		for _, h := range []struct {
			name  string
			clock *hookClock
			total *int64
		}{{"source", srcClock, &sourceCalls}, {"on_value", valClock, &valueCalls}} {
			calls, ns := h.clock.take()
			*h.total += calls
			stop := min(edge+ns, end)
			rec.Add(h.name, id, rounds, edge, stop)
			edge = stop
		}
		if rounds%32 == 0 {
			id := rec.Begin("verify", tk, rounds)
			err := mon.Verify()
			rec.End(id)
			if err != nil {
				out.invalid("session verify: %v", err)
			}
		}
		if d := time.Until(due); d > 0 {
			id := rec.Begin("idle", tk, rounds)
			time.Sleep(d)
			rec.End(id)
		}
		rec.End(tk)
	}
	loopEnd := rec.now()
	_ = sink

	var ticks []Span
	for _, s := range rec.Spans() {
		if s.Start >= loopStart && s.End <= loopEnd {
			switch s.Name {
			case "tick", "set_tasks", "plan_time", "run_round", "source", "on_value", "verify", "idle":
				ticks = append(ticks, s)
			}
		}
	}
	dur, self := byName(ticks)
	m := out.Metrics
	m.timing("remo.set_tasks_ms", dur["set_tasks"], 90)
	m.set("remo.set_tasks_self_ms", median(self["set_tasks"]))
	m.timing("remo.run_round_ms", dur["run_round"], 99)
	m.set("remo.run_round_self_ms", median(self["run_round"]))
	m.set("remo.verify_ms", median(dur["verify"]))
	wall := float64(loopEnd-loopStart) / 1e6
	m.set("remo.tick_idle_pct", 100*sum(dur["idle"])/wall)
	m.set("remo.tick_set_tasks_pct", 100*sum(dur["set_tasks"])/wall)
	m.set("remo.tick_run_round_pct", 100*sum(dur["run_round"])/wall)
	m.set("remo.tick_verify_pct", 100*sum(dur["verify"])/wall)
	// What the tick's children leave unexplained, as a share of the wall
	// clock: the acceptance check wants it under 5%.
	covered := sum(dur["set_tasks"]) + sum(dur["run_round"]) + sum(dur["verify"]) + sum(dur["idle"])
	unexplained := 100 * (wall - covered) / wall
	m.set("remo.tick_unexplained_pct", unexplained)
	if unexplained > 5 || unexplained < -5 {
		out.invalid("session trace: tick children leave %.1f%% of the wall clock unexplained", unexplained)
	}
	m.set("remo.source_calls_per_round", float64(sourceCalls)/float64(rounds))
	m.set("cluster.values_per_round", float64(valueCalls)/float64(rounds))
	m.set("adapt.messages_per_replan", float64(adaptMsgs)/float64(max(1, setTasks)))
	m.set("cluster.trees_rebuilt_per_op", float64(rebuilt)/float64(max(1, setTasks)))

	rep := mon.Report()
	m.set("cluster.avg_staleness_rounds", rep.AvgStaleness)
	m.set("predict.suppressed_pct", 100*float64(rep.ValuesSuppressed)/float64(max(1, rep.ValuesObserved)))
	m.set("predict.markers_lost_pct", 100*float64(rep.MarkersLost)/float64(max(1, rep.ValuesSuppressed)))
	m.set("shard.redispatches", float64(len(rep.Redispatches)))
	m.set("repair.repairs", float64(len(rep.Repairs)))
	detection := 0
	for _, r := range rep.Repairs {
		detection = max(detection, r.DetectionRounds)
	}
	m.set("detect.detection_rounds", float64(detection))
	m.set("transport.stale_epoch_frames", float64(rep.StaleEpochFrames))
	return nil
}

// taskOf converts a scheduled op to the task it installs.
func taskOf(op Op) remo.Task {
	t := remo.Task{Name: op.Name}
	for _, a := range op.Attrs {
		t.Attrs = append(t.Attrs, remo.AttrID(a))
	}
	for _, n := range op.Nodes {
		t.Nodes = append(t.Nodes, remo.NodeID(n))
	}
	return t
}
