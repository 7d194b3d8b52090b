// Command remo-sim plans and emulates a monitoring deployment end to
// end: it generates a synthetic system and task set (or loads a spec),
// plans the topology with a chosen partition scheme, runs the
// round-based emulation as one live session, and reports coverage,
// staleness and percentage error.
//
// Usage:
//
//	remo-sim -nodes 100 -tasks 50 -rounds 60
//	remo-sim -scheme star -tcp
//	remo-sim -spec problem.json -rounds 30
//	remo-sim -nodes 60 -chaos 0.2 -rounds 45
//	remo-sim -rounds 60 -journal /tmp/j -chaos-collector 20 -verify
//
// Every run arms the failure detector and self-healing loop, so a fault
// flag only adds a fault schedule. With -chaos the given fraction of
// nodes crashes a third of the way in, the detector declares them dead
// after -suspicion silent rounds, and the topology is repaired.
//
// With -journal the session is durable: collector state is checkpointed
// and write-ahead logged under the given directory. -chaos-collector N
// crashes the central collector at round N; the session rides out a
// short outage (leaves buffer their values), resumes from the journal,
// and finishes the run on the recovered state.
//
// With -shards N the collection tier runs as N collector shards behind
// a leader-elected dispatcher, all journaled into the one -journal
// directory. -chaos-shard S crashes shard S a third of the way in: its
// orphaned trees are re-dispatched onto the survivors within the
// suspicion window, and the shard later resumes from the session
// journal:
//
//	remo-sim -rounds 40 -shards 4 -journal /tmp/j -chaos-shard 1 -verify
//
// With -predict the session runs forecast-driven dead-band traffic
// suppression: leaves and the collector keep bit-identical forecasting
// replicas, values within -predict-eps of the shared prediction travel
// as compact markers instead of payloads, and the collector imputes
// them within the band. The ground truth switches to a utilization-
// style plateau workload, the dynamics suppression exploits:
//
//	remo-sim -rounds 80 -predict -predict-eps 0.01 -verify
//
// With -regions N the synthetic generator cuts the nodes into N WAN
// regions (the collector lives in r0) and inter-region edges are priced
// at the WAN default, so the planner prefers intra-region trees. The
// run reports per-region coverage and enforces -region-floor on every
// surviving region. -chaos-region R partitions region R from the
// collector tier a third of the way in, permanently; -chaos-link rA-rB
// flaps that inter-region link over the middle third:
//
//	remo-sim -nodes 30 -attrs 6 -tasks 15 -regions 3 -chaos-region 1 -verify
//	remo-sim -nodes 20 -attrs 6 -regions 2 -chaos-link r0-r1 -verify
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"remo"
	"remo/internal/lifecycle"
	"remo/internal/profiling"
	"remo/internal/workload"
)

func main() {
	// One signal stops at the next stage boundary (profiles still
	// flush); a second signal or the drain deadline force-exits.
	ctx, release := lifecycle.Context(context.Background(), lifecycle.Options{})
	defer release()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "remo-sim:", err)
		os.Exit(1)
	}
}

// options are remo-sim's parsed flags; set names the flags given on the
// command line.
type options struct {
	specPath, scheme, chaosLink, journal, cpuProfile, memProfile     string
	nodes, attrs, tasks, rounds, traceN, suspicion                   int
	regions, chaosRegion, predictSync, collCrash, shards, shardCrash int
	seed                                                             int64
	chaosFrac, chaosDrop, chaosDelay, regionFloor, predictEps        float64
	useTCP, verify, predict                                          bool
	set                                                              map[string]bool
}

// parseFlags parses and validates the command line.
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("remo-sim", flag.ContinueOnError)
	o := &options{set: make(map[string]bool)}
	fs.StringVar(&o.specPath, "spec", "", "JSON problem spec (default: generate synthetically)")
	fs.IntVar(&o.nodes, "nodes", 100, "synthetic: number of nodes")
	fs.IntVar(&o.attrs, "attrs", 40, "synthetic: attribute pool size")
	fs.IntVar(&o.tasks, "tasks", 50, "synthetic: number of tasks")
	fs.StringVar(&o.scheme, "scheme", "remo", "tree scheme for planning: remo, star, chain")
	fs.IntVar(&o.rounds, "rounds", 30, "collection rounds to emulate")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.useTCP, "tcp", false, "run the overlay over loopback TCP")
	fs.IntVar(&o.traceN, "trace", 0, "dump up to N emulation events (0 = off)")
	fs.BoolVar(&o.verify, "verify", false, "arm the verification harness: cross-check the plan, every repair, and the emulation results")

	fs.Float64Var(&o.chaosFrac, "chaos", 0, "self-healing demo: crash this fraction of nodes mid-run")
	fs.Float64Var(&o.chaosDrop, "chaos-drop", 0, "drop each message with this probability")
	fs.Float64Var(&o.chaosDelay, "chaos-delay", 0, "delay each message one round with this probability")
	fs.IntVar(&o.suspicion, "suspicion", 3, "failure-detector suspicion window in rounds")

	fs.IntVar(&o.regions, "regions", 1, "synthetic: cut the nodes into this many WAN regions (collector in r0, inter-region edges priced at the WAN default)")
	fs.IntVar(&o.chaosRegion, "chaos-region", -1, "partition this region from the collector tier a third of the way in, permanently (-1 = off; requires -regions >= 2)")
	fs.StringVar(&o.chaosLink, "chaos-link", "", "flap this inter-region link (e.g. r0-r1) over the middle third of the run (requires -regions >= 2)")
	fs.Float64Var(&o.regionFloor, "region-floor", 90, "coverage floor every surviving region must hold after the run (machine-checked when -regions > 1; 0 disables)")

	fs.BoolVar(&o.predict, "predict", false, "arm forecast-driven dead-band traffic suppression (switches ground truth to a plateau workload)")
	fs.Float64Var(&o.predictEps, "predict-eps", 0.01, "suppression error bound as a relative fraction (requires -predict)")
	fs.IntVar(&o.predictSync, "predict-sync", 0, "periodic model re-sync cadence in rounds, 0 = library default (requires -predict)")

	fs.StringVar(&o.journal, "journal", "", "journal directory: checkpoint and WAL the session for crash recovery")
	fs.IntVar(&o.collCrash, "chaos-collector", 0, "crash the central collector at this round and resume it from -journal (0 = off)")
	fs.IntVar(&o.shards, "shards", 1, "run the collection tier as this many collector shards behind a leader-elected dispatcher")
	fs.IntVar(&o.shardCrash, "chaos-shard", -1, "crash this collector shard a third of the way in and resume it from the session journal (-1 = off)")

	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, o.validate()
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "remo-sim:", err)
		}
	}()

	planner, err := buildPlanner(o)
	if err != nil {
		return err
	}
	// Suppression thrives on utilization-style plateau dynamics; the
	// default bursty generator would defeat a tight band.
	var source remo.ValueSource
	if o.predict {
		source = remo.UtilWalk{Seed: uint64(o.seed)}
	}
	plan, err := planner.Plan()
	if err != nil {
		return err
	}
	if err := plan.Describe(stdout); err != nil {
		return err
	}

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted before the emulation started: %w", err)
	}

	var rec *remo.TraceRecorder
	if o.traceN > 0 {
		rec = remo.NewTraceRecorder(o.traceN)
	}
	mon, err := planner.StartMonitor(remo.MonitorConfig{
		UseTCP:  o.useTCP,
		Seed:    uint64(o.seed),
		Source:  source,
		Chaos:   o.faultSchedule(planner.System()),
		Failure: &remo.FailurePolicy{SuspicionRounds: o.suspicion},
		Trace:   rec,
		Journal: o.journal,
		Shards:  o.shards,
	})
	if err != nil {
		return err
	}
	defer func() { _ = mon.Close() }()
	if err := o.drive(mon, stdout); err != nil {
		return err
	}
	if o.verify {
		if err := mon.Verify(); err != nil {
			return err
		}
	}
	var regionCov map[string]float64
	if o.regions > 1 {
		regionCov = mon.RegionCoverage()
		if o.regionFloor > 0 {
			if err := mon.VerifyRegionCoverage(o.regionFloor); err != nil {
				return err
			}
		}
	}
	o.printReport(stdout, mon.Report(), regionCov)
	if rec != nil {
		fmt.Fprintln(stdout, "trace:")
		if err := rec.Dump(stdout); err != nil {
			return err
		}
	}
	return nil
}

// printReport prints what the session measured.
func (o *options) printReport(stdout io.Writer, rep remo.DeployReport, regionCov map[string]float64) {
	if o.verify {
		fmt.Fprintln(stdout, "verification: plan invariants, repairs and results cross-checked OK")
	}
	over := "in-process transport"
	if o.useTCP {
		over = "loopback TCP"
	}
	fmt.Fprintf(stdout, "emulation: %d rounds over %s\n", rep.Rounds, over)
	fmt.Fprintf(stdout, "  coverage:        %d/%d pairs (%.1f%% of observations)\n",
		rep.CoveredPairs, rep.DemandedPairs, rep.PercentCollected)
	fmt.Fprintf(stdout, "  avg %% error:     %.2f%%\n", rep.AvgPercentError)
	fmt.Fprintf(stdout, "  avg staleness:   %.2f rounds\n", rep.AvgStaleness)
	fmt.Fprintf(stdout, "  traffic:         %d messages sent, %d dropped, %d values delivered\n",
		rep.MessagesSent, rep.MessagesDropped, rep.ValuesDelivered)
	if o.predict {
		suppPct := 0.0
		if rep.ValuesObserved > 0 {
			suppPct = 100 * float64(rep.ValuesSuppressed) / float64(rep.ValuesObserved)
		}
		fmt.Fprintf(stdout, "  suppression:     %d/%d values elided (%.1f%%), %d imputed, %d model syncs, %d markers lost, band use %.3f\n",
			rep.ValuesSuppressed, rep.ValuesObserved, suppPct,
			rep.ValuesImputed, rep.ModelSyncs, rep.MarkersLost, rep.ImputeBandMax)
	}
	if rep.CollectorRestarts > 0 || rep.FramesBuffered > 0 || rep.StaleEpochFrames > 0 {
		fmt.Fprintf(stdout, "durability: %d collector restart(s); %d frames buffered (%d redelivered, %d shed); %d stale-epoch frames fenced\n",
			rep.CollectorRestarts, rep.FramesBuffered, rep.FramesRedelivered, rep.FramesShed, rep.StaleEpochFrames)
	}
	if rep.Shards > 1 {
		fmt.Fprintf(stdout, "sharding: %d shards (%d down), leader elections: %d, trees orphaned: %d, re-dispatched: %d\n",
			rep.Shards, rep.ShardsDown, rep.LeaderElections, rep.OrphanedTrees, rep.TreesRedispatched)
		for _, ev := range rep.Redispatches {
			fmt.Fprintf(stdout, "  r%03d re-home: tree %s shard %d -> %d\n",
				ev.Round, clipKey(ev.TreeKey), ev.FromShard, ev.ToShard)
		}
	}
	if regionCov != nil {
		names := make([]string, 0, len(regionCov))
		for r := range regionCov {
			names = append(names, r)
		}
		slices.Sort(names)
		if o.regionFloor > 0 {
			fmt.Fprintf(stdout, "regions: %d, coverage floor %.0f%% held on every surviving region\n",
				len(names), o.regionFloor)
		} else {
			fmt.Fprintf(stdout, "regions: %d (floor check disabled)\n", len(names))
		}
		for _, r := range names {
			fmt.Fprintf(stdout, "  %-4s %.1f%%\n", r, regionCov[r])
		}
	}
	if rep.FailuresDetected > 0 || rep.NodesRecovered > 0 {
		fmt.Fprintf(stdout, "self-healing: %d failures detected, %d nodes recovered, %d repair actions\n",
			rep.FailuresDetected, rep.NodesRecovered, len(rep.Repairs))
		for _, ev := range rep.Repairs {
			if len(ev.Failed) > 0 {
				fmt.Fprintf(stdout, "  r%03d repair: failed=%v detection=%d rounds, %d trees rebuilt, %d edges changed, coverage %.1f%%\n",
					ev.Round, ev.Failed, ev.DetectionRounds, ev.TreesRebuilt, ev.EdgesChanged, ev.CoverageAfter)
			}
			if len(ev.Recovered) > 0 {
				fmt.Fprintf(stdout, "  r%03d reintegrate: recovered=%v coverage %.1f%%\n",
					ev.Round, ev.Recovered, ev.CoverageAfter)
			}
		}
	}
}

// validate rejects flag values that would silently do nothing
// (explicitly-zero chaos rates, a negative shard or region to crash or
// trace size), cannot work (a system without nodes, attributes or
// regions, a negative task count, a suspicion window shorter than one
// round, a link that is not two distinct regions) or fall outside the
// run. Whether a fault schedule suits the session — a journal to resume
// a crash from, a shard or region the system has — is StartMonitor's to
// refuse.
func (o *options) validate() error {
	if o.nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1 (got %d)", o.nodes)
	}
	if o.attrs < 1 {
		return fmt.Errorf("-attrs must be at least 1 (got %d)", o.attrs)
	}
	if o.tasks < 0 {
		return fmt.Errorf("-tasks must be non-negative (got %d)", o.tasks)
	}
	if o.traceN < 0 {
		return fmt.Errorf("-trace must be non-negative (got %d): 0 turns tracing off", o.traceN)
	}
	if o.rounds < 1 {
		return fmt.Errorf("-rounds must be at least 1 (got %d)", o.rounds)
	}
	if o.suspicion < 1 {
		return fmt.Errorf("-suspicion must be at least 1 round (got %d): the failure detector needs a positive silence window", o.suspicion)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"chaos", o.chaosFrac}, {"chaos-drop", o.chaosDrop}, {"chaos-delay", o.chaosDelay}} {
		if o.set[r.name] && (r.v <= 0 || r.v > 1) {
			return fmt.Errorf("-%s must be a rate in (0, 1] (got %v): pass a positive fraction or omit the flag", r.name, r.v)
		}
	}
	if o.set["chaos-collector"] {
		if o.collCrash < 1 {
			return fmt.Errorf("-chaos-collector must name a round of at least 1 (got %d)", o.collCrash)
		}
		if o.collCrash >= o.rounds {
			return fmt.Errorf("-chaos-collector round %d must fall inside the %d-round run", o.collCrash, o.rounds)
		}
	}
	if o.set["shards"] && o.shards < 1 {
		return fmt.Errorf("-shards must be at least 1 (got %d)", o.shards)
	}
	if o.set["predict-eps"] && !o.predict {
		return fmt.Errorf("-predict-eps requires -predict: the bound only applies once suppression is armed")
	}
	if o.set["predict-sync"] && !o.predict {
		return fmt.Errorf("-predict-sync requires -predict: the re-sync cadence only applies once suppression is armed")
	}
	if o.predict && (o.predictEps <= 0 || o.predictEps > 1) {
		return fmt.Errorf("-predict-eps must be a relative fraction in (0, 1] (got %v)", o.predictEps)
	}
	if o.predict && o.set["predict-sync"] && o.predictSync < 1 {
		return fmt.Errorf("-predict-sync must be at least 1 round (got %d)", o.predictSync)
	}
	if o.set["chaos-shard"] && o.shardCrash < 0 {
		return fmt.Errorf("-chaos-shard %d must name a shard in [0, %d)", o.shardCrash, o.shards)
	}
	if o.set["regions"] {
		if o.regions < 1 {
			return fmt.Errorf("-regions must be at least 1 (got %d): a WAN has no zero-region cut", o.regions)
		}
		if o.specPath != "" {
			return fmt.Errorf("-regions only applies to the synthetic generator: spec files carry their own region labels")
		}
	}
	if o.set["chaos-region"] && o.chaosRegion < 0 {
		return fmt.Errorf("-chaos-region %d must name a region in [0, %d)", o.chaosRegion, o.regions)
	}
	if o.set["chaos-link"] {
		if _, _, err := parseRegionLink(o.chaosLink); err != nil {
			return err
		}
	}
	if o.set["region-floor"] {
		if o.regions < 2 {
			return fmt.Errorf("-region-floor requires -regions of at least 2: the floor is checked per region")
		}
		if o.regionFloor < 0 || o.regionFloor > 100 {
			return fmt.Errorf("-region-floor must be a percentage in [0, 100] (got %v)", o.regionFloor)
		}
	}
	return nil
}

// parseRegionLink parses an inter-region link spelled the way regions
// are named ("r0-r1") into its two region indices.
func parseRegionLink(s string) (a, b int, err error) {
	if n, serr := fmt.Sscanf(s, "r%d-r%d", &a, &b); serr != nil || n != 2 || a < 0 || b < 0 {
		return 0, 0, fmt.Errorf("-chaos-link %q must name two regions like r0-r1", s)
	}
	if a == b {
		return 0, 0, fmt.Errorf("-chaos-link %q joins a region to itself: name two distinct regions", s)
	}
	return a, b, nil
}

// faultRound is where the scheduled node, region and shard faults
// strike: a third of the way into the run.
func (o *options) faultRound() int { return max(o.rounds/3, 1) }

// faultSchedule builds the run's fault schedule from the fault flags,
// or nil when none is set. Node crashes and a region partition last to
// the end of the run, so it finishes on the repaired topology; a link
// flaps over the middle third, so the far side is repaired around and
// then reintegrated.
func (o *options) faultSchedule(sys *remo.System) *remo.ChaosConfig {
	if o.chaosFrac == 0 && o.chaosDrop == 0 && o.chaosDelay == 0 && o.collCrash == 0 &&
		o.shardCrash < 0 && o.chaosRegion < 0 && o.chaosLink == "" {
		return nil
	}
	at, end := o.faultRound(), o.rounds+1
	cc := &remo.ChaosConfig{
		DropProb:         o.chaosDrop,
		MaxDelayRounds:   1,
		DelayProb:        o.chaosDelay,
		Seed:             uint64(o.seed),
		CollectorCrashAt: o.collCrash,
	}
	if o.chaosRegion >= 0 {
		cc.RegionPartitions = map[string][]remo.ChaosWindow{
			remo.RegionName(o.chaosRegion): {{From: at, To: end}},
		}
	}
	if o.chaosLink != "" {
		a, b, _ := parseRegionLink(o.chaosLink) // checked by validate
		cc.LinkFlaps = map[remo.ChaosRegionLink][]remo.ChaosWindow{
			remo.ChaosNormLink(remo.RegionName(a), remo.RegionName(b)): {{From: at, To: 2 * o.rounds / 3}},
		}
	}
	if o.chaosFrac > 0 {
		// Kill every len/kill-th node for an even spread across trees.
		ids := sys.NodeIDs()
		kill := min(max(int(o.chaosFrac*float64(len(ids))), 1), len(ids))
		cc.CrashWindows = make(map[remo.NodeID][]remo.ChaosWindow, kill)
		stride := len(ids) / kill
		for i := 0; i < kill; i++ {
			cc.CrashWindows[ids[i*stride]] = []remo.ChaosWindow{{From: at, To: end}}
		}
	}
	if o.shardCrash >= 0 {
		cc.ShardCrashAt = map[int]int{o.shardCrash: at}
	}
	return cc
}

// drive runs the session's rounds. A crashed shard is ridden out past
// the suspicion window, so its death is declared and its orphaned trees
// re-dispatched onto the survivors, then resumed from the session
// journal; a crashed lone collector is ridden out for a short outage
// (leaves buffer their values meanwhile), then resumed from the
// journal. Either way the run finishes on the recovered state.
func (o *options) drive(mon *remo.Monitor, stdout io.Writer) error {
	switch {
	case o.shardCrash >= 0:
		rideOut := min(o.faultRound()+o.suspicion+3, o.rounds)
		if err := mon.Run(rideOut); err != nil {
			return err
		}
		rr, err := mon.ResumeShard(o.shardCrash)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "shard %d crashed at round %d; resumed from the session journal: epoch %d, %d samples through round %d, plan matched: %v\n",
			o.shardCrash, o.faultRound(), rr.Epoch, rr.RecoveredSamples, rr.RecoveredRound, rr.PlanMatched)
		return mon.Run(o.rounds - rideOut)
	case o.collCrash > 0:
		outage := min(o.collCrash+2, o.rounds)
		if err := mon.Run(outage); err != nil {
			return err
		}
		rr, err := mon.Resume()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "collector crashed at round %d; resumed from journal: epoch %d, %d samples through round %d, %d WAL records replayed, plan matched: %v\n",
			o.collCrash, rr.Epoch, rr.RecoveredSamples, rr.RecoveredRound, rr.ReplayedRecords, rr.PlanMatched)
		return mon.Run(o.rounds - outage)
	}
	return mon.Run(o.rounds)
}

// clipKey shortens a long tree key (a comma-joined attribute set) for
// one-line event output.
func clipKey(k string) string {
	const maxLen = 24
	if len(k) <= maxLen {
		return k
	}
	return k[:maxLen] + "…"
}

// buildPlanner assembles the planning problem from a spec file or the
// synthetic generator. -regions > 1 cuts the synthetic nodes into
// contiguous WAN regions (collector in r0) and prices inter-region
// edges at the library default, so planning and verification charge the
// real WAN price.
func buildPlanner(o *options) (*remo.Planner, error) {
	opt, err := schemeOption(o.scheme)
	if err != nil {
		return nil, err
	}
	opts := []remo.PlannerOption{opt}
	if o.verify {
		opts = append(opts, remo.WithVerification())
	}
	if o.predict {
		opts = append(opts, remo.WithPrediction(o.predictEps))
	}
	planner, err := newPlanner(o, opts)
	if err == nil && o.predict && o.predictSync > 0 {
		err = planner.SetPredictionSync(o.predictSync)
	}
	return planner, err
}

// newPlanner loads the spec file or generates the synthetic problem.
func newPlanner(o *options, opts []remo.PlannerOption) (*remo.Planner, error) {
	if o.specPath != "" {
		f, err := os.Open(o.specPath)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		spec, err := remo.LoadSpec(f)
		if err != nil {
			return nil, err
		}
		return spec.Build(opts...)
	}

	sys, err := workload.System(workload.SystemConfig{
		Nodes:      o.nodes,
		Attrs:      o.attrs,
		CapacityLo: 150,
		CapacityHi: 400,
		Regions:    o.regions,
		Seed:       o.seed,
	})
	if err != nil {
		return nil, err
	}
	planner := remo.NewPlanner(sys, opts...)
	for _, t := range workload.Tasks(sys, workload.TaskConfig{
		Count:        o.tasks,
		AttrsPerTask: 8,
		NodesPerTask: max(4, o.nodes/5),
		Seed:         o.seed + 1,
	}) {
		if err := planner.AddTask(t); err != nil {
			return nil, err
		}
	}
	return planner, nil
}

func schemeOption(scheme string) (remo.PlannerOption, error) {
	switch scheme {
	case "remo", "adaptive":
		return remo.WithTreeScheme(remo.TreeAdaptive), nil
	case "star":
		return remo.WithTreeScheme(remo.TreeStar), nil
	case "chain":
		return remo.WithTreeScheme(remo.TreeChain), nil
	default:
		return nil, fmt.Errorf("unknown scheme %q (remo, star, chain)", scheme)
	}
}
