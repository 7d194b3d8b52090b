// Command remo-sim plans and emulates a monitoring deployment end to
// end: it generates a synthetic system and task set (or loads a spec),
// plans the topology with a chosen partition scheme, runs the
// round-based emulation, and reports coverage, staleness and percentage
// error.
//
// Usage:
//
//	remo-sim -nodes 100 -tasks 50 -rounds 60
//	remo-sim -scheme singleton -tcp
//	remo-sim -spec problem.json -rounds 30
//	remo-sim -nodes 60 -chaos 0.2 -rounds 45
//	remo-sim -rounds 60 -journal /tmp/j -chaos-collector 20 -verify
//
// With -chaos the deployment runs as a self-healing live session: the
// given fraction of nodes crashes a third of the way in, the failure
// detector declares them dead after -suspicion silent rounds, and the
// topology is repaired automatically.
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
//	remo-sim -nodes 30 -tasks 15 -regions 3 -chaos-region 1 -verify
//	remo-sim -nodes 20 -regions 2 -chaos-link r0-r1 -verify
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

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

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("remo-sim", flag.ContinueOnError)
	var (
		specPath = fs.String("spec", "", "JSON problem spec (default: generate synthetically)")
		nodes    = fs.Int("nodes", 100, "synthetic: number of nodes")
		attrs    = fs.Int("attrs", 40, "synthetic: attribute pool size")
		tasks    = fs.Int("tasks", 50, "synthetic: number of tasks")
		scheme   = fs.String("scheme", "remo", "tree scheme for planning: remo, star, chain")
		rounds   = fs.Int("rounds", 30, "collection rounds to emulate")
		seed     = fs.Int64("seed", 1, "random seed")
		useTCP   = fs.Bool("tcp", false, "run the overlay over loopback TCP")
		traceN   = fs.Int("trace", 0, "dump up to N emulation events (0 = off)")
		verifyOn = fs.Bool("verify", false, "arm the verification harness: cross-check the plan, every repair, and the emulation results")

		chaosFrac  = fs.Float64("chaos", 0, "self-healing demo: crash this fraction of nodes mid-run")
		chaosDrop  = fs.Float64("chaos-drop", 0, "drop each message with this probability")
		chaosDelay = fs.Float64("chaos-delay", 0, "delay each message one round with this probability")
		suspicion  = fs.Int("suspicion", 3, "failure-detector suspicion window in rounds")

		regions     = fs.Int("regions", 1, "synthetic: cut the nodes into this many WAN regions (collector in r0, inter-region edges priced at the WAN default)")
		chaosRegion = fs.Int("chaos-region", -1, "partition this region from the collector tier a third of the way in, permanently (-1 = off; requires -regions >= 2)")
		chaosLink   = fs.String("chaos-link", "", "flap this inter-region link (e.g. r0-r1) over the middle third of the run (requires -regions >= 2)")
		regionFloor = fs.Float64("region-floor", 90, "coverage floor every surviving region must hold after the run (machine-checked when -regions > 1; 0 disables)")

		predictOn   = fs.Bool("predict", false, "arm forecast-driven dead-band traffic suppression (switches ground truth to a plateau workload)")
		predictEps  = fs.Float64("predict-eps", 0.01, "suppression error bound as a relative fraction (requires -predict)")
		predictSync = fs.Int("predict-sync", 0, "periodic model re-sync cadence in rounds, 0 = library default (requires -predict)")

		journalDir = fs.String("journal", "", "journal directory: checkpoint and WAL the session for crash recovery")
		collCrash  = fs.Int("chaos-collector", 0, "crash the central collector at this round and resume it from -journal (0 = off)")
		shards     = fs.Int("shards", 1, "run the collection tier as this many collector shards behind a leader-elected dispatcher")
		shardCrash = fs.Int("chaos-shard", -1, "crash this collector shard a third of the way in and resume it from the session journal (-1 = off)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(fs, *nodes, *attrs, *tasks, *traceN, *rounds, *suspicion, *collCrash, *shards, *shardCrash, *predictOn, *predictEps, *predictSync); err != nil {
		return err
	}
	if err := validateRegionFlags(fs, *specPath, *regions, *chaosRegion, *chaosLink, *regionFloor); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "remo-sim:", err)
		}
	}()

	var extraOpts []remo.PlannerOption
	if *predictOn {
		extraOpts = append(extraOpts, remo.WithPrediction(*predictEps))
	}
	planner, err := buildPlanner(*specPath, *nodes, *attrs, *tasks, *regions, *seed, *scheme, *verifyOn, extraOpts...)
	if err != nil {
		return err
	}
	if *predictOn && *predictSync > 0 {
		if err := planner.SetPredictionSync(*predictSync); err != nil {
			return err
		}
	}
	// Suppression thrives on utilization-style plateau dynamics; the
	// default bursty generator would defeat a tight band.
	var source remo.ValueSource
	if *predictOn {
		source = remo.UtilWalk{Seed: uint64(*seed)}
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
	if *traceN > 0 {
		rec = remo.NewTraceRecorder(*traceN)
	}
	var rep remo.DeployReport
	var regionCov map[string]float64
	if *chaosFrac > 0 || *chaosDrop > 0 || *chaosDelay > 0 || *journalDir != "" || *shards > 1 ||
		*regions > 1 || *collCrash > 0 || *shardCrash >= 0 || *chaosRegion >= 0 || *chaosLink != "" {
		rep, regionCov, err = runChaos(planner, chaosOpts{
			rounds:      *rounds,
			useTCP:      *useTCP,
			seed:        uint64(*seed),
			frac:        *chaosFrac,
			dropProb:    *chaosDrop,
			delayProb:   *chaosDelay,
			suspicion:   *suspicion,
			journal:     *journalDir,
			collCrash:   *collCrash,
			shards:      *shards,
			shardCrash:  *shardCrash,
			regions:     *regions,
			chaosRegion: *chaosRegion,
			chaosLink:   *chaosLink,
			regionFloor: *regionFloor,
			trace:       rec,
			verify:      *verifyOn,
			source:      source,
		}, stdout)
	} else {
		rep, err = plan.Deploy(remo.DeployConfig{
			Rounds: *rounds,
			UseTCP: *useTCP,
			Seed:   uint64(*seed),
			Trace:  rec,
			Source: source,
		})
	}
	if err != nil {
		return err
	}
	if *verifyOn {
		fmt.Fprintln(stdout, "verification: plan invariants, repairs and results cross-checked OK")
	}
	fmt.Fprintf(stdout, "emulation: %d rounds over %s\n", rep.Rounds, transportName(*useTCP))
	fmt.Fprintf(stdout, "  coverage:        %d/%d pairs (%.1f%% of observations)\n",
		rep.CoveredPairs, rep.DemandedPairs, rep.PercentCollected)
	fmt.Fprintf(stdout, "  avg %% error:     %.2f%%\n", rep.AvgPercentError)
	fmt.Fprintf(stdout, "  avg staleness:   %.2f rounds\n", rep.AvgStaleness)
	fmt.Fprintf(stdout, "  traffic:         %d messages sent, %d dropped, %d values delivered\n",
		rep.MessagesSent, rep.MessagesDropped, rep.ValuesDelivered)
	if *predictOn {
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
		sort.Strings(names)
		if *regionFloor > 0 {
			fmt.Fprintf(stdout, "regions: %d, coverage floor %.0f%% held on every surviving region\n",
				len(names), *regionFloor)
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
	if rec != nil {
		fmt.Fprintln(stdout, "trace:")
		if err := rec.Dump(stdout); err != nil {
			return err
		}
	}
	return nil
}

// validateFlags rejects flag values that would silently do nothing
// (explicitly-zero chaos rates, a negative shard to crash or trace
// size), cannot work (a system without nodes or attributes, a negative
// task count, a suspicion window shorter than one round) or fall
// outside the run.
// Whether a fault schedule suits the session — a journal to resume a
// crash from, a shard or region the system has — is StartMonitor's to
// refuse.
func validateFlags(fs *flag.FlagSet, nodes, attrs, tasks, traceN, rounds, suspicion int, collCrash, shards, shardCrash int, predictOn bool, predictEps float64, predictSync int) error {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1 (got %d)", nodes)
	}
	if attrs < 1 {
		return fmt.Errorf("-attrs must be at least 1 (got %d)", attrs)
	}
	if tasks < 0 {
		return fmt.Errorf("-tasks must be non-negative (got %d)", tasks)
	}
	if traceN < 0 {
		return fmt.Errorf("-trace must be non-negative (got %d): 0 turns tracing off", traceN)
	}
	if rounds < 1 {
		return fmt.Errorf("-rounds must be at least 1 (got %d)", rounds)
	}
	if suspicion < 1 {
		return fmt.Errorf("-suspicion must be at least 1 round (got %d): the failure detector needs a positive silence window", suspicion)
	}
	for _, name := range []string{"chaos", "chaos-drop", "chaos-delay"} {
		if !set[name] {
			continue
		}
		f := fs.Lookup(name)
		v, err := strconv.ParseFloat(f.Value.String(), 64)
		if err != nil || v <= 0 || v > 1 {
			return fmt.Errorf("-%s must be a rate in (0, 1] (got %s): pass a positive fraction or omit the flag", name, f.Value.String())
		}
	}
	if set["chaos-collector"] {
		if collCrash < 1 {
			return fmt.Errorf("-chaos-collector must name a round of at least 1 (got %d)", collCrash)
		}
		if collCrash >= rounds {
			return fmt.Errorf("-chaos-collector round %d must fall inside the %d-round run", collCrash, rounds)
		}
	}
	if set["shards"] && shards < 1 {
		return fmt.Errorf("-shards must be at least 1 (got %d)", shards)
	}
	if set["predict-eps"] && !predictOn {
		return fmt.Errorf("-predict-eps requires -predict: the bound only applies once suppression is armed")
	}
	if set["predict-sync"] && !predictOn {
		return fmt.Errorf("-predict-sync requires -predict: the re-sync cadence only applies once suppression is armed")
	}
	if predictOn && (predictEps <= 0 || predictEps > 1) {
		return fmt.Errorf("-predict-eps must be a relative fraction in (0, 1] (got %v)", predictEps)
	}
	if predictOn && set["predict-sync"] && predictSync < 1 {
		return fmt.Errorf("-predict-sync must be at least 1 round (got %d)", predictSync)
	}
	if set["chaos-shard"] && shardCrash < 0 {
		return fmt.Errorf("-chaos-shard %d must name a shard in [0, %d)", shardCrash, shards)
	}
	return nil
}

// validateRegionFlags rejects WAN-topology flags that cannot work:
// zero/negative region counts, a negative region to partition, or a link
// that is not two distinct regions. Whether the named regions exist is
// StartMonitor's to refuse.
func validateRegionFlags(fs *flag.FlagSet, specPath string, regions, chaosRegion int, chaosLink string, regionFloor float64) error {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if set["regions"] {
		if regions < 1 {
			return fmt.Errorf("-regions must be at least 1 (got %d): a WAN has no zero-region cut", regions)
		}
		if specPath != "" {
			return fmt.Errorf("-regions only applies to the synthetic generator: spec files carry their own region labels")
		}
	}
	if set["chaos-region"] && chaosRegion < 0 {
		return fmt.Errorf("-chaos-region %d must name a region in [0, %d)", chaosRegion, regions)
	}
	if set["chaos-link"] {
		if _, _, err := parseRegionLink(chaosLink); err != nil {
			return err
		}
	}
	if set["region-floor"] {
		if regions < 2 {
			return fmt.Errorf("-region-floor requires -regions of at least 2: the floor is checked per region")
		}
		if regionFloor < 0 || regionFloor > 100 {
			return fmt.Errorf("-region-floor must be a percentage in [0, 100] (got %v)", regionFloor)
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

// chaosOpts parameterizes the self-healing demo session.
type chaosOpts struct {
	rounds      int
	useTCP      bool
	seed        uint64
	frac        float64
	dropProb    float64
	delayProb   float64
	suspicion   int
	journal     string
	collCrash   int
	shards      int
	shardCrash  int
	regions     int
	chaosRegion int
	chaosLink   string
	regionFloor float64
	trace       *remo.TraceRecorder
	verify      bool
	source      remo.ValueSource
}

// runChaos runs a self-healing live session: a fraction of nodes
// crashes a third of the way through the run and the Monitor detects
// and repairs around them. With a journal the session is durable, and
// with collCrash set the central collector itself crashes mid-run and
// is resumed from that journal. On a region-labeled system it also
// returns the per-region coverage map sampled after the run and
// enforces the surviving-region coverage floor.
func runChaos(planner *remo.Planner, o chaosOpts, stdout io.Writer) (remo.DeployReport, map[string]float64, error) {
	crashRound := o.rounds / 3
	if crashRound < 1 {
		crashRound = 1
	}
	cc := &remo.ChaosConfig{
		DropProb:       o.dropProb,
		MaxDelayRounds: 1,
		DelayProb:      o.delayProb,
		Seed:           o.seed,
	}
	if o.chaosRegion >= 0 {
		// A permanent partition: the region stays cut to the end, so the
		// run finishes on the repaired, re-homed topology.
		cc.RegionPartitions = map[string][]remo.ChaosWindow{
			remo.RegionName(o.chaosRegion): {{From: crashRound, To: o.rounds + 1}},
		}
	}
	if o.chaosLink != "" {
		// A flap over the middle third: the link drops, the far side is
		// declared dead and repaired around, then reintegrates.
		a, b, err := parseRegionLink(o.chaosLink)
		if err != nil {
			return remo.DeployReport{}, nil, err
		}
		cc.LinkFlaps = map[remo.ChaosRegionLink][]remo.ChaosWindow{
			remo.ChaosNormLink(remo.RegionName(a), remo.RegionName(b)): {
				{From: crashRound, To: 2 * o.rounds / 3},
			},
		}
	}
	if o.frac > 0 {
		ids := planner.System().NodeIDs()
		kill := int(o.frac * float64(len(ids)))
		if kill < 1 {
			kill = 1
		}
		if kill > len(ids) {
			kill = len(ids)
		}
		// Kill every len/kill-th node for an even spread across trees, for
		// the rest of the run.
		cc.CrashWindows = make(map[remo.NodeID][]remo.ChaosWindow, kill)
		stride := len(ids) / kill
		for i := 0; i < kill; i++ {
			cc.CrashWindows[ids[i*stride]] = []remo.ChaosWindow{{From: crashRound, To: o.rounds + 1}}
		}
	}
	if o.collCrash > 0 {
		cc.CollectorCrashAt = o.collCrash
	}
	if o.shardCrash >= 0 {
		cc.ShardCrashAt = map[int]int{o.shardCrash: crashRound}
	}
	mon, err := planner.StartMonitor(remo.MonitorConfig{
		UseTCP:  o.useTCP,
		Seed:    o.seed,
		Source:  o.source,
		Chaos:   cc,
		Failure: &remo.FailurePolicy{SuspicionRounds: o.suspicion},
		Trace:   o.trace,
		Journal: o.journal,
		Shards:  o.shards,
	})
	if err != nil {
		return remo.DeployReport{}, nil, err
	}
	defer func() { _ = mon.Close() }()

	if o.shardCrash >= 0 {
		// Ride out the shard outage past the suspicion window, so the
		// death is declared and the orphaned trees re-dispatched onto the
		// survivors, then resume the shard from the session journal and
		// finish the run.
		rideOut := crashRound + o.suspicion + 3
		if rideOut > o.rounds {
			rideOut = o.rounds
		}
		if err := mon.Run(rideOut); err != nil {
			return remo.DeployReport{}, nil, err
		}
		rr, err := mon.ResumeShard(o.shardCrash)
		if err != nil {
			return remo.DeployReport{}, nil, err
		}
		fmt.Fprintf(stdout, "shard %d crashed at round %d; resumed from the session journal: epoch %d, %d samples through round %d, plan matched: %v\n",
			o.shardCrash, crashRound, rr.Epoch, rr.RecoveredSamples, rr.RecoveredRound, rr.PlanMatched)
		if err := mon.Run(o.rounds - rideOut); err != nil {
			return remo.DeployReport{}, nil, err
		}
	} else if o.collCrash > 0 {
		// Ride out a short outage past the crash (leaves buffer their
		// values meanwhile), then resume the collector from the journal
		// and finish the run on the recovered state.
		outage := o.collCrash + 2
		if outage > o.rounds {
			outage = o.rounds
		}
		if err := mon.Run(outage); err != nil {
			return remo.DeployReport{}, nil, err
		}
		rr, err := mon.Resume()
		if err != nil {
			return remo.DeployReport{}, nil, err
		}
		fmt.Fprintf(stdout, "collector crashed at round %d; resumed from journal: epoch %d, %d samples through round %d, %d WAL records replayed, plan matched: %v\n",
			o.collCrash, rr.Epoch, rr.RecoveredSamples, rr.RecoveredRound, rr.ReplayedRecords, rr.PlanMatched)
		if err := mon.Run(o.rounds - outage); err != nil {
			return remo.DeployReport{}, nil, err
		}
	} else if err := mon.Run(o.rounds); err != nil {
		return remo.DeployReport{}, nil, err
	}
	if o.verify {
		if err := mon.Verify(); err != nil {
			return remo.DeployReport{}, nil, err
		}
	}
	var regionCov map[string]float64
	if o.regions > 1 {
		regionCov = mon.RegionCoverage()
		if o.regionFloor > 0 {
			if err := mon.VerifyRegionCoverage(o.regionFloor); err != nil {
				return remo.DeployReport{}, nil, err
			}
		}
	}
	return mon.Report(), regionCov, nil
}

func transportName(tcp bool) string {
	if tcp {
		return "loopback TCP"
	}
	return "in-process transport"
}

// clipKey shortens a long tree key (a comma-joined attribute set) for
// one-line event output.
func clipKey(k string) string {
	const max = 24
	if len(k) <= max {
		return k
	}
	return k[:max] + "…"
}

// buildPlanner assembles the planning problem from a spec file or the
// synthetic generator. regions > 1 cuts the synthetic nodes into
// contiguous WAN regions (collector in r0) and prices inter-region
// edges at the library default, so planning and verification charge the
// real WAN price.
func buildPlanner(specPath string, nodes, attrs, tasks, regions int, seed int64, scheme string, verifyOn bool, extra ...remo.PlannerOption) (*remo.Planner, error) {
	opt, err := schemeOption(scheme)
	if err != nil {
		return nil, err
	}
	opts := []remo.PlannerOption{opt}
	if verifyOn {
		opts = append(opts, remo.WithVerification())
	}
	opts = append(opts, extra...)

	if specPath != "" {
		f, err := os.Open(specPath)
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
		Nodes:      nodes,
		Attrs:      attrs,
		CapacityLo: 150,
		CapacityHi: 400,
		Regions:    regions,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	planner := remo.NewPlanner(sys, opts...)
	for _, t := range workload.Tasks(sys, workload.TaskConfig{
		Count:        tasks,
		AttrsPerTask: 8,
		NodesPerTask: maxInt(4, nodes/5),
		Seed:         seed + 1,
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
