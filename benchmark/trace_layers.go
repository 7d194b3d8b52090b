package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"remo/benchmark/rig"
	"remo/internal/agg"
	"remo/internal/cluster"
	"remo/internal/core"
	"remo/internal/journal"
	"remo/internal/model"
	"remo/internal/plan"
	"remo/internal/predict"
	"remo/internal/repair"
	"remo/internal/store"
	"remo/internal/task"
	"remo/internal/transport"
	"remo/internal/verify"
)

// Probe sizes: enough repetitions for a stable median, few enough that
// the whole traced run fits the time a run may take.
const (
	probeOps    = 12  // replans and InstallDiffs
	probeRounds = 100 // cluster rounds per engine and transport
	probeFrames = 256 // captured frames for the codec
)

// ms is the time since t0 in milliseconds.
func ms(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// mallocs counts heap allocations made by f.
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// meteredTransport counts and times what crosses a transport. Send runs
// concurrently from the round engine's workers.
type meteredTransport struct {
	inner transport.Transport

	frames, values, bytes atomic.Int64
	sendNS, flushNS       atomic.Int64
	drainNS               atomic.Int64

	mu       sync.Mutex
	captured []transport.Message
}

func (t *meteredTransport) Send(msg transport.Message) error {
	t0 := time.Now()
	err := t.inner.Send(msg)
	t.sendNS.Add(int64(time.Since(t0)))
	t.frames.Add(1)
	t.values.Add(int64(len(msg.Values)))
	t.bytes.Add(int64(transport.FrameSize(msg)))
	if len(msg.Values) > 0 {
		t.mu.Lock()
		if len(t.captured) < probeFrames {
			// Senders reuse their buffers after the round: copy what is kept.
			msg.Values = append([]transport.Value(nil), msg.Values...)
			msg.Beats = append([]transport.Beat(nil), msg.Beats...)
			msg.Suppressed = append([]transport.Supp(nil), msg.Suppressed...)
			msg.Syncs = append([]transport.Supp(nil), msg.Syncs...)
			t.captured = append(t.captured, msg)
		}
		t.mu.Unlock()
	}
	return err
}

func (t *meteredTransport) Drain(n model.NodeID) []transport.Message {
	t0 := time.Now()
	msgs := t.inner.Drain(n)
	t.drainNS.Add(int64(time.Since(t0)))
	return msgs
}

func (t *meteredTransport) Flush() error {
	t0 := time.Now()
	err := t.inner.Flush()
	t.flushNS.Add(int64(time.Since(t0)))
	return err
}

func (t *meteredTransport) Close() error { return t.inner.Close() }

// stepTimes runs rounds steps of a fresh machine and returns each
// step's duration in µs, the machine's final result, and the heap
// allocations per round.
func stepTimes(cfg cluster.Config, rounds int) (us []float64, res cluster.Result, mallocsPerRound float64, err error) {
	m, err := cluster.NewMachine(cfg)
	if err != nil {
		return nil, res, 0, err
	}
	defer m.Close()
	us = make([]float64, 0, rounds)
	n := mallocs(func() {
		for i := 0; i < rounds && err == nil; i++ {
			t0 := time.Now()
			err = m.Step()
			us = append(us, 1000*ms(t0))
		}
	})
	return us, m.Result(), n / float64(rounds), err
}

// probes is what the layer probes share: the workload's own system,
// demand and initial forest.
type probes struct {
	in      Inputs
	dir     string
	out     *Outcome
	m       *Metrics
	sys     *model.System
	spec    *agg.Spec
	d0      *task.Demand
	forest0 *plan.Forest
}

// replanned is one op's outcome: the forest the replanner adopted for
// the demand the op left.
type replanned struct {
	forest *plan.Forest
	demand *task.Demand
}

// traceLayers is T3: timed calls into each layer's public functions on
// the workload's own system, demand, forest and op schedule.
func traceLayers(in Inputs, opts rig.Options, dir string, out *Outcome) error {
	facade, err := opts.Planner()
	if err != nil {
		return err
	}
	p := &probes{in: in, dir: dir, out: out, m: out.Metrics, sys: facade.System(), spec: agg.NewSpec()}
	mgr := task.NewManager(task.WithSystem(p.sys))
	for _, t := range facade.Tasks() {
		if err := mgr.Add(t); err != nil {
			return err
		}
	}
	p.d0 = mgr.Demand()
	steps, err := p.core(mgr)
	if err != nil {
		return err
	}
	frames, err := p.cluster()
	if err != nil {
		return err
	}
	if err := p.installDiff(steps); err != nil {
		return err
	}
	if err := p.codec(frames); err != nil {
		return err
	}
	st, pairs := p.store()
	if err := p.journal(st, pairs); err != nil {
		return err
	}
	p.predictAndRepair()
	return nil
}

// core: one full plan, then the op schedule through the incremental
// replanner, then one from-scratch plan of the final demand to price
// what incrementality cost in coverage. It sets p.forest0.
func (p *probes) core(mgr *task.Manager) ([]replanned, error) {
	m := p.m
	cp := core.NewPlanner(core.WithSpec(p.spec))
	t0 := time.Now()
	rp := core.NewReplanner(cp, p.sys, p.d0)
	m.set("core.plan_full_ms", ms(t0))
	p.forest0 = rp.Current().Forest
	var steps []replanned
	var replanMS []float64
	var fellBack, evals, builds, reuses int
	var reusePct float64
	for _, op := range p.in.Ops[:probeOps] {
		var err error
		switch op.Kind {
		case "create":
			err = mgr.Add(taskOf(op))
		case "modify":
			err = mgr.Update(taskOf(op))
		default:
			err = mgr.Remove(op.Name)
		}
		if err != nil {
			return nil, err
		}
		d := mgr.Demand()
		t0 := time.Now()
		res, st := rp.Update(d)
		replanMS = append(replanMS, ms(t0))
		if st.FellBack {
			fellBack++
		}
		evals, builds, reuses = evals+st.Evaluations, builds+st.TreeBuilds, reuses+st.TreeReuses
		reusePct += st.Diff.ReusePct()
		steps = append(steps, replanned{res.Forest, d})
	}
	m.timing("core.replan_ms", replanMS, 90)
	m.set("core.replan_fallback_pct", 100*float64(fellBack)/probeOps)
	m.set("core.replan_reuse_pct", reusePct/probeOps)
	m.set("core.evals_per_replan", float64(evals)/probeOps)
	m.set("core.tree_memo_hit_pct", 100*float64(reuses)/float64(max(1, builds+reuses)))
	final := steps[len(steps)-1]
	scratch := cp.Plan(p.sys, final.demand)
	m.set("core.replan_coverage_delta_pct",
		100*float64(rp.Current().Stats.Collected-scratch.Stats.Collected)/float64(max(1, final.demand.PairCount())))
	return steps, nil
}

// baseConfig is the machine every cluster probe starts from.
func (p *probes) baseConfig() cluster.Config {
	return cluster.Config{Sys: p.sys, Forest: p.forest0, Demand: p.d0, Spec: p.spec, EnforceCapacity: true,
		Source: cluster.BurstyWalk{Seed: p.in.Options.Seed}}
}

// cluster: the round engine over the memory transport, with one worker
// as the baseline, behind four shards, and over loopback TCP behind the
// metering wrapper; verify checks the forest and the memory run's
// result. It returns the frames captured from the TCP rounds.
func (p *probes) cluster() ([]transport.Message, error) {
	m := p.m
	vctx := verify.Context{Sys: p.sys, Demand: p.d0, Spec: p.spec}
	t0 := time.Now()
	if err := verify.Plan(vctx, p.forest0); err != nil {
		p.out.invalid("verify.Plan: %v", err)
	}
	m.set("verify.plan_ms", ms(t0))

	height := 0
	for _, t := range p.forest0.Trees {
		height = max(height, t.Height())
	}
	m.set("cluster.max_tree_height", float64(height))
	base := p.baseConfig()
	mem, res, allocs, err := stepTimes(base, probeRounds)
	if err != nil {
		return nil, err
	}
	m.set("cluster.step_mem_us_p50", median(mem))
	m.set("cluster.mallocs_per_round", allocs)
	m.set("cluster.messages_per_round", float64(res.MessagesSent)/probeRounds)
	t0 = time.Now()
	if err := verify.Result(vctx, res); err != nil {
		p.out.invalid("verify.Result: %v", err)
	}
	m.set("verify.result_ms", ms(t0))

	one := base
	one.Workers = 1
	w1, _, _, err := stepTimes(one, probeRounds)
	if err != nil {
		return nil, err
	}
	m.set("cluster.step_w1_us_p50", median(w1))

	sharded := base
	sharded.Shards = 4
	sh, _, _, err := stepTimes(sharded, probeRounds)
	if err != nil {
		return nil, err
	}
	m.set("shard.step_overhead_pct", 100*(median(sh)-median(mem))/median(mem))

	tcp, err := transport.NewTCP(p.sys.NodeIDs())
	if err != nil {
		return nil, err
	}
	meter := &meteredTransport{inner: tcp}
	overTCP := base
	overTCP.Transport = meter
	tcpUS, _, _, err := stepTimes(overTCP, probeRounds)
	lost := tcp.LostFrames()
	_ = meter.Close()
	if err != nil {
		return nil, err
	}
	frames, values := float64(meter.frames.Load()), float64(meter.values.Load())
	m.set("cluster.step_tcp_us_p50", median(tcpUS))
	m.set("transport.send_us_per_frame", float64(meter.sendNS.Load())/1e3/max(1, frames))
	m.set("transport.flush_us_per_round", float64(meter.flushNS.Load())/1e3/probeRounds)
	m.set("transport.drain_us_per_round", float64(meter.drainNS.Load())/1e3/probeRounds)
	m.set("transport.bytes_per_round", float64(meter.bytes.Load())/probeRounds)
	m.set("transport.frames_per_round", frames/probeRounds)
	m.set("transport.bytes_per_value", float64(meter.bytes.Load())/max(1, values))
	m.set("transport.lost_frames", float64(lost))
	return meter.captured, nil
}

// installDiff: the replanned forests installed one after another into a
// running machine.
func (p *probes) installDiff(steps []replanned) error {
	mach, err := cluster.NewMachine(p.baseConfig())
	if err != nil {
		return err
	}
	defer mach.Close()
	var installMS []float64
	for _, s := range steps {
		if err := mach.StepN(2); err != nil {
			return err
		}
		t0 := time.Now()
		mach.InstallDiff(s.forest, s.demand)
		installMS = append(installMS, ms(t0))
	}
	p.m.set("cluster.install_diff_ms", median(installMS))
	return nil
}

// codec: encode and decode of the captured frames.
func (p *probes) codec(frames []transport.Message) error {
	values := 0
	for _, msg := range frames {
		values += len(msg.Values)
	}
	const reps = 20
	perValue := func(t0 time.Time) float64 { return 1e6 * ms(t0) / float64(max(1, reps*values)) }
	var (
		wire []byte
		err  error
	)
	t0 := time.Now()
	allocs := mallocs(func() {
		for r := 0; r < reps; r++ {
			wire = wire[:0]
			for _, msg := range frames {
				if wire, err = transport.AppendEncode(wire, msg); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	p.m.set("transport.encode_ns_per_value", perValue(t0))
	var msg transport.Message
	t0 = time.Now()
	allocs += mallocs(func() {
		for r := 0; r < reps; r++ {
			dec := transport.NewDecoder(bytes.NewReader(wire))
			for range frames {
				if err = dec.DecodeInto(&msg); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	p.m.set("transport.decode_ns_per_value", perValue(t0))
	p.m.set("transport.codec_allocs", allocs/reps)
	return nil
}

// store: what OnValue does per value, and what /v1/latest scans. It
// returns the filled store and the pairs it holds.
func (p *probes) store() (*store.Store, []model.Pair) {
	pairs := p.forest0.CollectedPairs(p.d0)
	st := store.New(0)
	t0 := time.Now()
	for r := 0; r < probeRounds; r++ {
		for _, pr := range pairs {
			st.Observe(pr, r, float64(r))
		}
	}
	p.m.set("store.observe_ns_per_value", 1e6*ms(t0)/float64(max(1, probeRounds*len(pairs))))
	p.m.set("store.samples_retained", float64(st.Len()))
	const scans = 20
	t0 = time.Now()
	for i := 0; i < scans; i++ {
		for _, pr := range st.Pairs() {
			st.Latest(pr)
		}
	}
	p.m.set("store.latest_scan_us", 1000*ms(t0)/scans)
	return st, pairs
}

// journal: one round's samples appended per call, a checkpoint, and
// recovery of what was written.
func (p *probes) journal(st *store.Store, pairs []model.Pair) error {
	m := p.m
	jdir := filepath.Join(p.dir, "probe-journal")
	if err := os.RemoveAll(jdir); err != nil {
		return err
	}
	state := journal.State{Epoch: 1, Fingerprint: p.forest0.Fingerprint(), Demand: p.d0, BaseDemand: p.d0,
		Partition: p.forest0.Partition(), Store: st}
	jw, err := journal.Create(jdir, journal.Options{CheckpointEvery: -1}, state)
	if err != nil {
		return err
	}
	recs := make([]journal.SampleRec, len(pairs))
	t0 := time.Now()
	for r := 0; r < probeRounds; r++ {
		for i, pr := range pairs {
			recs[i] = journal.SampleRec{Pair: pr, Round: r, Value: float64(r)}
		}
		if _, err := jw.AppendSamples(r, recs); err != nil {
			_ = jw.Close()
			return err
		}
	}
	m.set("journal.append_us_per_round", 1000*ms(t0)/probeRounds)
	m.set("journal.bytes_per_round", dirBytes(jdir)/probeRounds)
	t0 = time.Now()
	err = jw.Checkpoint(state)
	m.set("journal.checkpoint_ms", ms(t0))
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := journal.Recover(jdir); err != nil {
		p.out.invalid("journal.Recover: %v", err)
	}
	m.set("journal.recover_ms", ms(t0))
	return nil
}

// predictAndRepair: one forecasting replica's step, and rebuilding the
// trees that lose one member.
func (p *probes) predictAndRepair() {
	replica := predict.New(predict.Kind(0))
	const steps = 1 << 18
	var sink float64
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		replica.Observe(float64(i & 63))
		sink += replica.Predict()
	}
	_ = sink
	p.m.set("predict.model_step_ns", 1e6*ms(t0)/steps)

	var victim model.NodeID
	for _, t := range p.forest0.Trees {
		if members := t.Members(); len(members) > 1 {
			victim = members[len(members)-1]
			break
		}
	}
	t0 = time.Now()
	repair.Repair(repair.Config{Sys: p.sys, Demand: p.d0, Spec: p.spec}, p.forest0, map[model.NodeID]struct{}{victim: {}})
	p.m.set("repair.repair_ms", ms(t0))
}

// dirBytes sums the sizes of the files directly under dir.
func dirBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := int64(0)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return float64(total)
}
