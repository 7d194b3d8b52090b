package remo

import (
	"time"

	"remo/internal/adapt"
	"remo/internal/plan"
)

// AdaptScheme names a runtime adaptation policy.
type AdaptScheme = adapt.Scheme

// Adaptation schemes for runtime task changes.
const (
	// AdaptDirectApply applies task changes with minimal topology change
	// and never re-partitions.
	AdaptDirectApply = adapt.DirectApply
	// AdaptRebuild replans from scratch on every change.
	AdaptRebuild = adapt.Rebuild
	// AdaptNoThrottle searches merge/split improvements around changed
	// trees without cost-benefit throttling.
	AdaptNoThrottle = adapt.NoThrottle
	// AdaptAdaptive is REMO's scheme: the bounded search plus
	// cost-benefit throttling.
	AdaptAdaptive = adapt.Adaptive
	// AdaptIncremental replans with the guided search scoped to the
	// change's dirty attribute neighborhood, seeded from the current
	// partition, falling back to the full search on quality regression.
	// This is the default for Monitor task mutations (see
	// MonitorConfig.Scheme).
	AdaptIncremental = adapt.Incremental
)

// AdaptReport summarizes one Monitor.SetTasks adaptation.
type AdaptReport struct {
	// AdaptMessages counts overlay reconfiguration messages.
	AdaptMessages int
	// PlanTime is the planning cost of the round.
	PlanTime time.Duration
	// CollectedPairs is the coverage of the topology now in force.
	CollectedPairs int
	// Operations counts merge/split operations applied.
	Operations int
	// TreesKept, TreesRebuilt and TreesDropped are the round's
	// tree-level plan diff: kept trees survive with identical
	// fingerprints and need no re-announcement.
	TreesKept int
	// TreesRebuilt counts new or restructured trees (see TreesKept).
	TreesRebuilt int
	// TreesDropped counts retired attribute sets (see TreesKept).
	TreesDropped int
	// TreeReusePct is TreesKept over the new forest's trees, percent.
	TreeReusePct float64
	// Incremental reports the scoped replanner produced the plan;
	// FellBack that a scoped attempt was discarded for a full replan.
	Incremental bool
	// FellBack reports a discarded scoped attempt (see Incremental).
	FellBack bool
	// Round and Fingerprint are set by Monitor.SetTasks from the view it
	// published with the new plan: the first round the plan runs and the
	// installed forest's fingerprint.
	Round       int
	Fingerprint uint64
}

// adaptReportFrom maps an adaptation round onto the public report; diff
// is the tree-level diff the running machine applied for it.
func adaptReportFrom(rep adapt.Report, diff plan.Diff) AdaptReport {
	return AdaptReport{
		AdaptMessages:  rep.AdaptMessages,
		PlanTime:       rep.PlanTime,
		CollectedPairs: rep.Stats.Collected,
		Operations:     rep.Operations,
		TreesKept:      len(diff.Kept),
		TreesRebuilt:   len(diff.Rebuilt),
		TreesDropped:   len(diff.Dropped),
		TreeReusePct:   diff.ReusePct(),
		Incremental:    rep.Replan.Incremental,
		FellBack:       rep.Replan.FellBack,
	}
}
