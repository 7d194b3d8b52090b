package remo

import (
	"remo/internal/store"
)

// Monitoring data repository and result processor (the data collector
// components of the paper's §2.2 system model), re-exported for use with
// MonitorConfig.OnValue.
type (
	// Store retains collected values as bounded per-pair time series.
	Store = store.Store
	// Sample is one retained observation.
	Sample = store.Sample
	// Summary aggregates a pair's retained samples.
	Summary = store.Summary
	// Processor evaluates standing triggers over collected values.
	Processor = store.Processor
	// Trigger is a threshold watch.
	Trigger = store.Trigger
	// Alert records a trigger firing.
	Alert = store.Alert
	// TriggerCondition compares values against thresholds.
	TriggerCondition = store.Condition
)

// Trigger conditions.
const (
	// TriggerAbove fires when value > threshold.
	TriggerAbove = store.Above
	// TriggerBelow fires when value < threshold.
	TriggerBelow = store.Below
)

// NewStore returns a repository retaining up to capacity samples per
// pair (a sensible default when capacity <= 0).
func NewStore(capacity int) *Store { return store.New(capacity) }

// NewProcessor returns a result processor retaining up to maxAlerts
// alerts (a sensible default when maxAlerts <= 0).
func NewProcessor(maxAlerts int) *Processor { return store.NewProcessor(maxAlerts) }
