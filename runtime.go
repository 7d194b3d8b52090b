package remo

import (
	"time"

	"remo/internal/chaos"
	"remo/internal/cluster"
	"remo/internal/trace"
)

// Emulation tracing, re-exported for MonitorConfig.Trace.
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

// Fault injection, re-exported for MonitorConfig.Chaos. One schedule
// drives both the memory and TCP overlays; all probabilistic decisions are deterministic in the seed,
// so chaos runs are replayable.
type (
	// ChaosConfig schedules crashes, recoveries, message loss and delay.
	ChaosConfig = chaos.Config
	// ChaosWindow is one [From, To) round interval: a node down for
	// ChaosConfig.CrashWindows, a region or link cut for its region
	// schedules.
	ChaosWindow = chaos.Window
	// ChaosRegionLink names an undirected inter-region link for
	// ChaosConfig.LinkFlaps schedules; build keys with ChaosNormLink.
	ChaosRegionLink = chaos.RegionLink
)

// ChaosNormLink normalizes an undirected region pair into the
// ChaosConfig.LinkFlaps key.
func ChaosNormLink(a, b string) ChaosRegionLink { return chaos.NormLink(a, b) }

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

// Deterministic value generators, re-exported for MonitorConfig.Source.
type (
	// BurstyWalk models bursty stream-processing metrics: baseline,
	// periodic drift, occasional spikes (the zero-config default).
	BurstyWalk = cluster.BurstyWalk
	// UtilWalk models machine-utilization series: long plateaus with a
	// slight drift, punctuated by level shifts — the dynamics
	// forecast-driven suppression (WithPrediction) exploits.
	UtilWalk = cluster.UtilWalk
)

// CollectionResult is everything the collection tier measured: rounds
// run, coverage (DemandedPairs, CoveredPairs, PercentCollected), error
// and staleness against ground truth, overlay traffic, the dead-band
// suppression ledger (sessions armed via WithPrediction), epoch-fencing
// counters, leaf-buffer counters (journaled sessions) and the sharded
// tier's counters. Its fields are documented on the type.
type CollectionResult = cluster.Result

// DeployReport is what Monitor.Report returns: what the collection tier
// observed, plus the session's own history.
type DeployReport struct {
	CollectionResult
	// FailuresDetected counts death declarations by the failure detector
	// (self-healing sessions only).
	FailuresDetected int
	// NodesRecovered counts resurrections noticed by the detector.
	NodesRecovered int
	// Repairs records every automatic topology repair, in order.
	Repairs []RepairEvent
	// CollectorRestarts counts successful collector resumes
	// (Monitor.Resume and cold ResumeMonitor starts).
	CollectorRestarts int
	// Replans records every SetTasks-driven plan swap's tree-level diff,
	// in order.
	Replans []ReplanEvent
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
