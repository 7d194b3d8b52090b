// Package chaos unifies fault injection for the emulated deployment:
// crash/recover schedules, probabilistic message loss, and message
// delay. One Config drives every transport because injection happens in
// the emulation layer, before messages reach the wire — the same
// schedule reproduces identically over the memory and TCP overlays.
//
// All probabilistic decisions are pure functions of (Seed, link, round,
// sequence), so chaos runs are replayable: the same configuration always
// kills the same messages in the same rounds.
package chaos

import (
	"errors"
	"fmt"
	"slices"

	"remo/internal/model"
)

// Window is one half-open round interval [From, To). A window that ends
// past the run never closes.
type Window struct {
	From, To int
}

// in reports whether round falls inside any of the windows.
func in(ws []Window, round int) bool {
	for _, w := range ws {
		if round >= w.From && round < w.To {
			return true
		}
	}
	return false
}

// Config schedules fault injection for one emulated session. The zero
// value (and a nil *Config) injects nothing; every method is nil-safe.
type Config struct {
	// CrashWindows schedules node crashes: node n is down during every
	// listed [From, To) window — it stops sending (data and heartbeats),
	// discards received messages, and loses its relay state. One window
	// that ends past the run is a crash that never recovers; several are
	// a node that flaps.
	CrashWindows map[model.NodeID][]Window
	// CollectorCrashAt kills the central collector at the start of the
	// given round (0 = never). The collector stays down until the
	// session restarts it from its journal (Monitor.Resume); leaves keep
	// running and buffer or shed their outgoing values in the meantime.
	// A sharded tier's root never dies, so it applies to a lone collector
	// only.
	CollectorCrashAt int
	// ShardCrashAt kills collector shard s at the start of round
	// ShardCrashAt[s] (sharded sessions only). Like CollectorCrashAt the
	// crash latches: the shard stays down until the session resumes it
	// from the session's journal (Monitor.ResumeShard), which the tier's
	// root keeps writing through the outage.
	ShardCrashAt map[int]int
	// RegionPartitions cuts an entire region off from the rest of the
	// overlay during each listed [From, To) window: every message with
	// exactly one endpoint inside the partitioned region is dropped,
	// including heartbeats — the failure detector sees the whole region
	// go dark at once. Intra-region traffic survives.
	RegionPartitions map[string][]Window
	// LinkFlaps takes one named inter-region link down during each
	// listed [From, To) window: messages whose endpoint regions match
	// the link (in either direction) are dropped. Key links through
	// NormLink.
	LinkFlaps map[RegionLink][]Window
	// DropProb drops each message with this probability in [0,1].
	DropProb float64
	// DelayProb delays each surviving message with this probability in
	// [0,1]; delayed messages arrive late instead of being lost.
	DelayProb float64
	// MaxDelayRounds bounds the injected delay; delays are uniform in
	// [1, MaxDelayRounds] (default 1, i.e. always one round).
	MaxDelayRounds int
	// Seed decorrelates the probabilistic decisions between runs.
	Seed uint64

	// regions and centralRegion label the endpoints for the region-scoped
	// schedules; ForSystem fills them in from the deployed system.
	regions       map[model.NodeID]string
	centralRegion string
}

// ForSystem returns a copy of c whose region-scoped schedules label
// endpoints with sys's regions. c itself is never written, so one
// config can drive sessions over differently labeled systems.
func (c *Config) ForSystem(sys *model.System) *Config {
	if c == nil {
		return nil
	}
	out := *c
	out.regions, out.centralRegion = nil, ""
	if len(c.RegionPartitions) > 0 || len(c.LinkFlaps) > 0 {
		out.centralRegion = sys.CentralRegion
		out.regions = make(map[model.NodeID]string, len(sys.Nodes))
		for _, n := range sys.Nodes {
			out.regions[n.ID] = n.Region
		}
	}
	return &out
}

// Validate refuses a schedule the session would silently drop or could
// never recover from. sys is the deployed system, shards the number of
// collector shards (<= 1 for a lone collector), and durable whether the
// session journals — the only place a latched crash resumes from.
func (c *Config) Validate(sys *model.System, shards int, durable bool) error {
	if c == nil {
		return nil
	}
	if !(c.DropProb >= 0 && c.DropProb <= 1 && c.DelayProb >= 0 && c.DelayProb <= 1) {
		return fmt.Errorf("chaos: DropProb %v and DelayProb %v must be probabilities in [0, 1]", c.DropProb, c.DelayProb)
	}
	if c.CollectorCrashAt > 0 {
		if shards > 1 {
			return errors.New("chaos: CollectorCrashAt targets the lone collector; a sharded tier's root never dies (use ShardCrashAt)")
		}
		if !durable {
			return errors.New("chaos: CollectorCrashAt requires a journal: a crashed collector can only resume from its journal")
		}
	}
	if len(c.ShardCrashAt) > 0 {
		if shards <= 1 {
			return errors.New("chaos: ShardCrashAt requires a sharded tier: a lone collector has no shard to crash")
		}
		for s := range c.ShardCrashAt {
			if s < 0 || s >= shards {
				return fmt.Errorf("chaos: ShardCrashAt names shard %d, not in [0, %d)", s, shards)
			}
		}
		if !durable {
			return errors.New("chaos: ShardCrashAt requires a journal: a crashed shard can only resume from the session's journal")
		}
	}
	var named []string
	for r := range c.RegionPartitions {
		named = append(named, r)
	}
	for l := range c.LinkFlaps {
		named = append(named, l.A, l.B)
	}
	if len(named) == 0 {
		return nil
	}
	known := sys.Regions()
	for _, r := range named {
		if _, ok := slices.BinarySearch(known, r); !ok {
			return fmt.Errorf("chaos: a region schedule names region %q, which the system lacks (it has %q)", r, known)
		}
	}
	return nil
}

// CollectorCrash reports whether the collector crashes at the start of
// the given round. The emulation machine latches the firing; only an
// explicit resume brings the collector back.
func (c *Config) CollectorCrash(round int) bool {
	return c != nil && c.CollectorCrashAt > 0 && round == c.CollectorCrashAt
}

// ShardCrash reports whether collector shard s crashes at the start of
// the given round per the latched ShardCrashAt schedule. The emulation
// machine latches the firing; only an explicit per-shard resume brings
// the shard back.
func (c *Config) ShardCrash(s, round int) bool {
	if c == nil {
		return false
	}
	at, ok := c.ShardCrashAt[s]
	return ok && at > 0 && round == at
}

// Crashed reports whether node n is down during the given round per its
// crash windows.
func (c *Config) Crashed(n model.NodeID, round int) bool {
	return c != nil && in(c.CrashWindows[n], round)
}

// JustCrashed reports whether round is the first round node n is down —
// the edge the emulation traces as a NodeDead event.
func (c *Config) JustCrashed(n model.NodeID, round int) bool {
	return c.Crashed(n, round) && !c.Crashed(n, round-1)
}

// Drop decides whether the seq-th message from 'from' in the given round
// is lost on the wire. seq is the sender's running message counter.
func (c *Config) Drop(from, to model.NodeID, round, seq int) bool {
	if c == nil {
		return false
	}
	if c.regionCut(from, to, round) {
		return true
	}
	if c.DropProb <= 0 {
		return false
	}
	return unit(c.Seed, 0xD709, uint64(from), uint64(to), uint64(round), uint64(seq)) < c.DropProb
}

// Delay returns how many rounds late the seq-th message from 'from'
// should arrive (0 = on time).
func (c *Config) Delay(from, to model.NodeID, round, seq int) int {
	if c == nil || c.DelayProb <= 0 {
		return 0
	}
	if unit(c.Seed, 0xDE1A, uint64(from), uint64(to), uint64(round), uint64(seq)) >= c.DelayProb {
		return 0
	}
	max := c.MaxDelayRounds
	if max <= 1 {
		return 1
	}
	return 1 + int(mix(c.Seed, 0xDE1B, uint64(from), uint64(to), uint64(round), uint64(seq))%uint64(max))
}

// unit hashes the inputs to a float in [0, 1).
func unit(vals ...uint64) float64 {
	return float64(mix(vals...)>>11) / float64(1<<53)
}

// mix is a splitmix64-style hash combining the inputs.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
	}
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}
