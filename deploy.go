package remo

import (
	"fmt"
	"time"

	"remo/internal/chaos"
	"remo/internal/cluster"
	"remo/internal/trace"
	"remo/internal/transport"
	"remo/internal/verify"
)

// Emulation tracing, re-exported for DeployConfig.Trace.
type (
	// TraceRecorder retains structured emulation events.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded emulation event.
	TraceEvent = trace.Event
	// TraceKind classifies trace events.
	TraceKind = trace.Kind
)

// Trace event kinds.
const (
	TraceSend        = trace.Send
	TraceRecvDrop    = trace.RecvDrop
	TraceSendDrop    = trace.SendDrop
	TraceDeliver     = trace.Deliver
	TraceNodeDead    = trace.NodeDead
	TraceDetect      = trace.Detect
	TraceRepair      = trace.Repair
	TraceNodeRecover = trace.NodeRecover
	TraceDelayed     = trace.Delayed
	TraceReplan      = trace.Replan
	TraceTreeKept    = trace.TreeKept
	TraceTreeRebuilt = trace.TreeRebuilt
	TraceTreeDropped = trace.TreeDropped
)

// Fault injection, re-exported for DeployConfig.Chaos and
// MonitorConfig.Chaos. One schedule drives both the memory and TCP
// overlays; all probabilistic decisions are deterministic in the seed,
// so chaos runs are replayable.
type (
	// ChaosConfig schedules crashes, recoveries, message loss and delay.
	ChaosConfig = chaos.Config
	// ChaosLink identifies a directed overlay link for per-link loss.
	ChaosLink = chaos.Link
	// ChaosWindow is one [From, To) round interval a node is down, for
	// ChaosConfig.CrashWindows flapping schedules.
	ChaosWindow = chaos.Window
	// ChaosRegionLink names an undirected inter-region link for
	// ChaosConfig.LinkFlaps schedules; build keys with ChaosNormLink.
	ChaosRegionLink = chaos.RegionLink
)

// ChaosNormLink normalizes an undirected region pair into the
// ChaosConfig.LinkFlaps key.
func ChaosNormLink(a, b string) ChaosRegionLink { return chaos.NormLink(a, b) }

// labelRegionChaos copies the system's region labels into a chaos
// config that uses region-scoped schedules but was not labeled
// explicitly, so callers only declare the windows.
func labelRegionChaos(c *ChaosConfig, sys *System) {
	if c == nil || len(c.Regions) > 0 {
		return
	}
	if len(c.RegionPartitions) == 0 && len(c.LinkFlaps) == 0 {
		return
	}
	c.LabelRegions(sys)
}

// RollingUpgrade builds a deterministic ChaosConfig.CrashWindows
// schedule taking the given fraction of members down at a time in
// consecutive waves of waveRounds rounds starting at round start — the
// region-scoped rolling-upgrade drill (take one region's node list from
// System.RegionNodes).
func RollingUpgrade(members []NodeID, fraction float64, start, waveRounds int) map[NodeID][]ChaosWindow {
	return chaos.RollingUpgrade(members, fraction, start, waveRounds)
}

// NewTraceRecorder returns a recorder retaining up to max events (a
// sensible default when max <= 0).
func NewTraceRecorder(max int) *TraceRecorder { return trace.NewRecorder(max) }

// ValueSource produces the attribute values the emulated nodes observe.
// It must be safe for concurrent use (node goroutines query values in
// parallel). The zero-config default is a deterministic bursty
// random-walk generator.
type ValueSource = cluster.ValueSource

// ValueFunc adapts a function to the ValueSource interface.
type ValueFunc = cluster.ValueFunc

// Deterministic value generators, re-exported for DeployConfig.Source
// and MonitorConfig.Source.
type (
	// BurstyWalk models bursty stream-processing metrics: baseline,
	// periodic drift, occasional spikes (the zero-config default).
	BurstyWalk = cluster.BurstyWalk
	// UtilWalk models machine-utilization series: long plateaus with a
	// slight drift, punctuated by level shifts — the dynamics
	// forecast-driven suppression (WithPrediction) exploits.
	UtilWalk = cluster.UtilWalk
)

// DeployConfig parameterizes an emulated deployment of a plan.
type DeployConfig struct {
	// Rounds is the number of collection rounds (default 30).
	Rounds int
	// Source overrides the ground-truth value generator.
	Source ValueSource
	// UseTCP runs the overlay over real loopback TCP connections
	// instead of the in-process transport.
	UseTCP bool
	// EnforceCapacity applies per-round capacity budgets (default true
	// via Deploy; set DisableCapacity to lift them).
	DisableCapacity bool
	// Chaos schedules fault injection: crash/recover schedules,
	// periodic, probabilistic and per-link message loss, and message
	// delay.
	Chaos *ChaosConfig
	// Seed decorrelates the default value generator.
	Seed uint64
	// OnValue, when set, receives every value the collector accepts
	// (alias-resolved). Feed it a Store and/or Processor to retain and
	// act on collected data:
	//
	//	st, pr := remo.NewStore(0), remo.NewProcessor(0)
	//	cfg.OnValue = func(p remo.Pair, round int, v float64) {
	//	    st.Observe(p, round, v)
	//	    pr.Observe(p, round, v)
	//	}
	OnValue func(pair Pair, round int, value float64)
	// Trace, when set, records structured emulation events (sends,
	// drops, deliveries, failures).
	Trace *TraceRecorder
}

// DeployReport summarizes what the central collector observed.
type DeployReport struct {
	// Rounds actually run.
	Rounds int
	// DemandedPairs and CoveredPairs measure coverage: pairs delivered
	// at least once.
	DemandedPairs int
	CoveredPairs  int
	// PercentCollected is delivered observations over expected ones.
	PercentCollected float64
	// AvgPercentError is the collector's mean relative error against
	// ground truth (staleness + loss), in percent.
	AvgPercentError float64
	// AvgStaleness is the mean view age in rounds.
	AvgStaleness float64
	// MessagesSent and MessagesDropped count overlay traffic.
	MessagesSent    int
	MessagesDropped int
	// ValuesDelivered counts attribute values received by the collector.
	ValuesDelivered int
	// ErrorSeries is the average percentage error per round — the
	// warm-up/convergence curve.
	ErrorSeries []float64
	// ValuesObserved, ValuesSuppressed, ValuesImputed, ModelSyncs and
	// MarkersLost account forecast-driven dead-band suppression
	// (sessions armed via WithPrediction; all zero otherwise):
	// suppression-eligible observations, observations elided from the
	// wire as within-band, markers the collector turned into imputed
	// values, periodic/forced model re-syncs absorbed, and markers that
	// died with their frame or were refused as unsafe. Conservation:
	// ValuesSuppressed ≤ ValuesObserved and
	// ValuesImputed + MarkersLost ≤ ValuesSuppressed.
	ValuesObserved   int
	ValuesSuppressed int
	ValuesImputed    int
	ModelSyncs       int
	MarkersLost      int
	// ImputeBandMax is the worst observed |imputed − truth| as a
	// fraction of the allowed band — ≤ 1 by construction.
	ImputeBandMax float64
	// FailuresDetected counts death declarations by the failure detector
	// (self-healing sessions only).
	FailuresDetected int
	// NodesRecovered counts resurrections noticed by the detector.
	NodesRecovered int
	// Repairs records every automatic topology repair, in order.
	Repairs []RepairEvent
	// StaleEpochFrames counts frames rejected by epoch fencing
	// (journaled sessions only): values composed under a plan epoch
	// older than the receiver's — pre-crash or pre-swap traffic.
	StaleEpochFrames int
	// FramesBuffered, FramesShed and FramesRedelivered account the
	// leaf-side outgoing buffers of a journaled session: frames parked
	// during collector outages, frames dropped oldest-first on
	// overflow, and parked frames delivered after the fact.
	FramesBuffered    int
	FramesShed        int
	FramesRedelivered int
	// CollectorRestarts counts successful collector resumes
	// (Monitor.Resume and cold ResumeMonitor starts).
	CollectorRestarts int
	// Replans records every SetTasks-driven plan swap's tree-level diff,
	// in order (live Monitor sessions only).
	Replans []ReplanEvent
	// Shards is the collector shard count (0 for single-collector
	// sessions); the fields below are populated for sharded sessions
	// only.
	Shards int
	// ShardsDown counts shards currently declared dead.
	ShardsDown int
	// OrphanedTrees counts trees that lost their owning shard to a
	// death, cumulatively; TreesRedispatched counts how many of those
	// re-homings landed on a surviving shard.
	OrphanedTrees     int
	TreesRedispatched int
	// LeaderElections counts dispatcher leadership changes.
	LeaderElections int
	// ShardWatermarks is the last round each shard was live (-1 = never)
	// — a lagging shard degrades these instead of blocking the round.
	ShardWatermarks []int
	// Redispatches records every tree re-homing the dispatcher decided
	// (orphan re-dispatches after a shard death plus rebalances onto
	// recovered shards), in apply order.
	Redispatches []RedispatchEvent
}

// RedispatchEvent records one tree re-homing decided by the shard
// dispatcher.
type RedispatchEvent struct {
	// Round is the collection round the move was decided in.
	Round int
	// TreeKey identifies the moved collection tree.
	TreeKey string
	// FromShard is the shard the tree left (dead for an orphan
	// re-dispatch, a donor for a rebalance); ToShard is its new owner.
	FromShard, ToShard int
}

// ReplanEvent records one task-mutation replan of a live Monitor: how
// the installed forest relates to the one it replaced, and which
// planning path produced it.
type ReplanEvent struct {
	// Round is the collection round the swap landed before.
	Round int
	// TreesKept counts trees reused byte-for-byte (identical
	// fingerprint) — their members see no reconfiguration at all.
	TreesKept int
	// TreesRebuilt counts new or restructured trees, TreesDropped
	// attribute sets retired by the swap.
	TreesRebuilt int
	// TreesDropped counts retired attribute sets (see TreesRebuilt).
	TreesDropped int
	// ReusePct is TreesKept over the new forest's tree count, percent.
	ReusePct float64
	// Incremental reports that the scoped incremental search produced
	// the plan; FellBack that a scoped attempt was discarded for a full
	// replan.
	Incremental bool
	// FellBack reports a discarded scoped attempt (see Incremental).
	FellBack bool
	// PlanTime is the replan's wall-clock planning cost.
	PlanTime time.Duration
	// AdaptMessages counts overlay reconfiguration messages of the swap.
	AdaptMessages int
}

// RepairEvent records one automatic self-healing action of a live
// Monitor: a topology repair after detected failures, or a
// reintegration after detected recoveries.
type RepairEvent struct {
	// Round is the collection round the runtime acted in.
	Round int
	// Failed lists the nodes declared dead that triggered the repair.
	Failed []NodeID
	// Recovered lists resurrected nodes reintegrated into the topology.
	Recovered []NodeID
	// DetectionRounds is the worst detection latency among Failed: rounds
	// between a node's last evidence of life and its declaration.
	DetectionRounds int
	// TreesRebuilt and EdgesChanged measure the repair's topology churn.
	TreesRebuilt int
	EdgesChanged int
	// PairsLost counts pairs observable only at the failed nodes.
	PairsLost int
	// CoverageAfter is the planned coverage of surviving demanded pairs
	// after the repair, in percent.
	CoverageAfter float64
}

// Deploy emulates the plan: periodic update messages flowing up the
// collection trees, capacity enforced per round, and a central collector
// measuring coverage and percentage error.
func (p *Plan) Deploy(cfg DeployConfig) (DeployReport, error) {
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 30
	}
	var source ValueSource = cfg.Source
	if source == nil {
		source = cluster.BurstyWalk{Seed: cfg.Seed}
	}
	labelRegionChaos(cfg.Chaos, p.sys)

	ccfg := cluster.Config{
		Sys:             p.sys,
		Forest:          p.forest(),
		Demand:          p.internalDemand(),
		Spec:            p.aggSpec,
		Source:          source,
		Rounds:          rounds,
		Resolve:         p.resolve,
		EnforceCapacity: !cfg.DisableCapacity,
		Chaos:           cfg.Chaos,
		Observer:        cfg.OnValue,
		Trace:           cfg.Trace,
		Predict:         p.predSpec,
	}
	if cfg.UseTCP {
		tr, err := transport.NewTCP(p.sys.NodeIDs())
		if err != nil {
			return DeployReport{}, fmt.Errorf("remo: start TCP transport: %w", err)
		}
		defer func() { _ = tr.Close() }()
		ccfg.Transport = tr
	}

	res, err := cluster.Run(ccfg)
	if err != nil {
		return DeployReport{}, fmt.Errorf("remo: deploy: %w", err)
	}
	if p.verifyOn {
		if err := verify.Result(p.verifyContext(), res); err != nil {
			return DeployReport{}, fmt.Errorf("remo: deploy result failed verification: %w", err)
		}
	}
	return reportFromResult(res), nil
}

// reportFromResult maps everything the collection tier measured onto
// the public report. The session-owned fields — self-healing history,
// collector restarts, replans, re-dispatches — are left for the caller.
func reportFromResult(res cluster.Result) DeployReport {
	return DeployReport{
		Rounds:            res.Rounds,
		DemandedPairs:     res.DemandedPairs,
		CoveredPairs:      res.CoveredPairs,
		PercentCollected:  res.PercentCollected,
		AvgPercentError:   res.AvgPercentError,
		AvgStaleness:      res.AvgStaleness,
		MessagesSent:      res.MessagesSent,
		MessagesDropped:   res.MessagesDropped,
		ValuesDelivered:   res.ValuesDelivered,
		ValuesObserved:    res.ValuesObserved,
		ValuesSuppressed:  res.ValuesSuppressed,
		ValuesImputed:     res.ValuesImputed,
		ModelSyncs:        res.ModelSyncs,
		MarkersLost:       res.MarkersLost,
		ImputeBandMax:     res.ImputeBandMax,
		ErrorSeries:       res.ErrorSeries,
		StaleEpochFrames:  res.StaleEpochFrames,
		FramesBuffered:    res.FramesBuffered,
		FramesShed:        res.FramesShed,
		FramesRedelivered: res.FramesRedelivered,
		Shards:            res.Shards,
		ShardsDown:        res.ShardsDown,
		OrphanedTrees:     res.OrphanedTrees,
		TreesRedispatched: res.TreesRedispatched,
		LeaderElections:   res.LeaderElections,
		ShardWatermarks:   res.ShardWatermarks,
	}
}
