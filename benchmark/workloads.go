package main

import "time"

// Workload fixes a system shape, a fault schedule and a client mix.
// Every workload runs the same three clients — one SSE subscriber, one
// mutator, one reader — at rates that decide which layers do the work.
type Workload struct {
	Name string
	Why  string

	Nodes, Attrs                      int
	Tasks, AttrsPerTask, NodesPerTask int
	CapLo, CapHi, Central             float64
	RoundEveryMS                      int

	Shards          int
	PredictEps      float64
	Faulty          bool
	CrashEvery      int
	CrashFor        int
	ShardCrashRound int

	// The mutator is closed-loop: it sends the next op Think after the
	// previous one became visible, so a slow op delays the next instead
	// of queueing behind it.
	Think            time.Duration
	OpAttrs, OpNodes int
	MaxOps           int
	// Op latencies are taken over ops OpSkip..OpSkip+OpCount-1 of the
	// schedule: the same ops on every run, however many more the window
	// has room for, because an op's cost depends on what it touches far
	// more than on when it ran. OpSkip covers the warm-up.
	OpSkip, OpCount int
	// ReadEvery is the open-loop reader's period.
	ReadEvery time.Duration
}

// workloads is the suite. Sizes are what two cores plan in about a
// second: the planner's cost grows with the pairs it manages to collect,
// so capacities are tight and coverage is partial, as in the paper's
// constrained regime.
var workloads = []Workload{
	{
		Name: "steady-collect",
		Why: "unpaced rounds over a large forest with rare, tiny mutations: cluster, transport, journal, " +
			"store and the SSE broker do the work and the planner almost none",
		Nodes: 100, Attrs: 60, Tasks: 60, AttrsPerTask: 12, NodesPerTask: 25,
		CapLo: 120, CapHi: 320, Central: 8000, RoundEveryMS: 1,
		Think: 800 * time.Millisecond, OpAttrs: 8, OpNodes: 12, MaxOps: 300, OpSkip: 2, OpCount: 14,
		ReadEvery: 100 * time.Millisecond,
	},
	{
		Name: "task-churn",
		Why: "a closed-loop mutator cycling create, modify, remove on paced rounds: core, partition, tree, " +
			"alloc and adapt do the work and a round is a small share of a tick",
		Nodes: 60, Attrs: 30, Tasks: 30, AttrsPerTask: 8, NodesPerTask: 12,
		CapLo: 100, CapHi: 250, Central: 2500, RoundEveryMS: 50,
		Think: 200 * time.Millisecond, OpAttrs: 8, OpNodes: 12, MaxOps: 300, OpSkip: 4, OpCount: 32,
		ReadEvery: 100 * time.Millisecond,
	},
	{
		Name: "read-mix",
		Why: "task-churn's system with an open-loop reader at 100 reads/s beside one mutation a second: " +
			"reads share Monitor.mu with rounds and replans, so a gain for either that costs readers shows",
		Nodes: 60, Attrs: 30, Tasks: 30, AttrsPerTask: 8, NodesPerTask: 12,
		CapLo: 100, CapHi: 250, Central: 2500, RoundEveryMS: 50,
		Think: 800 * time.Millisecond, OpAttrs: 8, OpNodes: 12, MaxOps: 300, OpSkip: 2, OpCount: 14,
		ReadEvery: 10 * time.Millisecond,
	},
	{
		Name: "faulty-suppressed",
		Why: "unpaced rounds with dead-band suppression, four collector shards, loss, delay, node crashes " +
			"and a shard crash: predict, shard, detect, repair, fencing and leaf buffers run, which steady-collect bypasses",
		Nodes: 60, Attrs: 40, Tasks: 40, AttrsPerTask: 10, NodesPerTask: 15,
		CapLo: 120, CapHi: 320, Central: 3500, RoundEveryMS: 1,
		Shards: 4, PredictEps: 0.01, Faulty: true, CrashEvery: 200, CrashFor: 50, ShardCrashRound: 300,
		Think: 800 * time.Millisecond, OpAttrs: 8, OpNodes: 12, MaxOps: 300, OpSkip: 2, OpCount: 14,
		ReadEvery: 100 * time.Millisecond,
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
