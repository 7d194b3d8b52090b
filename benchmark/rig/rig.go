// Package rig builds the system under test from generated inputs: a
// spec file plus the session options cmd/remo-serve has no flags for.
// The SUT process and the traced in-process runs share it, so both
// measure the same configuration.
package rig

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"remo"
	"remo/internal/serve"
)

// Options is the SUT configuration the driver writes next to the spec.
type Options struct {
	// Spec is the path of the generated remo.Spec JSON.
	Spec string `json:"spec"`
	// Journal is the session's journal directory.
	Journal string `json:"journal"`
	// Seed decorrelates the value source.
	Seed uint64 `json:"seed"`
	// RoundEveryMS paces rounds; 1 makes the backend run back-to-back.
	RoundEveryMS int `json:"roundEveryMs"`
	// StreamBuffer is the per-subscriber SSE buffer.
	StreamBuffer int `json:"streamBuffer"`
	// Shards > 1 runs the sharded collector tier.
	Shards int `json:"shards,omitempty"`
	// PredictEps > 0 arms dead-band suppression over a UtilWalk source.
	PredictEps float64 `json:"predictEps,omitempty"`
	// Chaos, when set, schedules round-indexed faults.
	Chaos *Chaos `json:"chaos,omitempty"`
}

// Chaos is the fault schedule of the faulty workload, in the few knobs
// it uses; Config expands it.
type Chaos struct {
	Seed           uint64  `json:"seed"`
	DropProb       float64 `json:"dropProb"`
	DelayProb      float64 `json:"delayProb"`
	MaxDelayRounds int     `json:"maxDelayRounds"`
	// One node at a time is down for CrashFor of every CrashEvery
	// rounds, rotating through CrashNodes.
	CrashEvery int   `json:"crashEvery"`
	CrashFor   int   `json:"crashFor"`
	CrashNodes []int `json:"crashNodes"`
	// ShardCrashRound > 0 kills shard ShardCrash at that round.
	ShardCrash      int `json:"shardCrash"`
	ShardCrashRound int `json:"shardCrashRound"`
}

// crashHorizon is the round up to which crash windows are laid out: far
// more rounds than any run reaches.
const crashHorizon = 1 << 20

// Config expands the schedule into the runtime's chaos vocabulary.
func (c *Chaos) Config() *remo.ChaosConfig {
	if c == nil {
		return nil
	}
	cfg := &remo.ChaosConfig{
		Seed:           c.Seed,
		DropProb:       c.DropProb,
		DelayProb:      c.DelayProb,
		MaxDelayRounds: c.MaxDelayRounds,
	}
	if c.CrashEvery > 0 && len(c.CrashNodes) > 0 {
		cfg.CrashWindows = make(map[remo.NodeID][]remo.ChaosWindow)
		for i, from := 0, c.CrashEvery; from < crashHorizon; i, from = i+1, from+c.CrashEvery {
			n := remo.NodeID(c.CrashNodes[i%len(c.CrashNodes)])
			cfg.CrashWindows[n] = append(cfg.CrashWindows[n], remo.ChaosWindow{From: from, To: from + c.CrashFor})
		}
	}
	if c.ShardCrashRound > 0 {
		cfg.ShardCrashAt = map[int]int{c.ShardCrash: c.ShardCrashRound}
	}
	return cfg
}

// LoadOptions reads an options file.
func LoadOptions(path string) (Options, error) {
	var o Options
	data, err := os.ReadFile(path)
	if err != nil {
		return o, err
	}
	if err := json.Unmarshal(data, &o); err != nil {
		return o, fmt.Errorf("rig: decode %s: %w", path, err)
	}
	return o, nil
}

// Planner builds the planner from the spec with verification armed.
func (o Options) Planner() (*remo.Planner, error) {
	f, err := os.Open(o.Spec)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := remo.LoadSpec(f)
	if err != nil {
		return nil, err
	}
	opts := []remo.PlannerOption{remo.WithVerification()}
	if o.PredictEps > 0 {
		opts = append(opts, remo.WithPrediction(o.PredictEps))
	}
	return spec.Build(opts...)
}

// Monitor is the session configuration: loopback TCP overlay, journal
// on, the workload's source, shards and chaos.
func (o Options) Monitor() remo.MonitorConfig {
	cfg := remo.MonitorConfig{
		UseTCP:  true,
		Seed:    o.Seed,
		Journal: o.Journal,
		Shards:  o.Shards,
		Chaos:   o.Chaos.Config(),
	}
	if o.PredictEps > 0 {
		cfg.Source = remo.UtilWalk{Seed: o.Seed}
	}
	return cfg
}

// Serve plans the spec and boots the service on it.
func (o Options) Serve() (*serve.Server, error) {
	planner, err := o.Planner()
	if err != nil {
		return nil, err
	}
	return serve.New(serve.Config{
		Planner:      planner,
		Monitor:      o.Monitor(),
		RoundEvery:   time.Duration(o.RoundEveryMS) * time.Millisecond,
		StreamBuffer: o.StreamBuffer,
		VerifyEvery:  32,
	})
}
