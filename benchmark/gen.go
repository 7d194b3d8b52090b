package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"remo"
	"remo/benchmark/rig"
)

// Op is one scheduled task mutation, in the service's wire shape.
type Op struct {
	Kind  string `json:"kind"` // "create" | "modify" | "remove"
	Name  string `json:"name"`
	Attrs []int  `json:"attrs,omitempty"`
	Nodes []int  `json:"nodes,omitempty"`
}

// Inputs is everything a run feeds the system under test, derived from
// the workload and the seed alone.
type Inputs struct {
	Spec remo.Spec
	// Options lack the Spec and Journal paths, which belong to a run.
	Options rig.Options
	Ops     []Op
}

// sample draws k distinct values from 0..n-1.
func sample(rng *rand.Rand, n, k int) []int { return rng.Perm(n)[:k] }

// labels draws n strictly increasing four-digit labels with seed-drawn
// gaps. Four digits throughout keep numeric and string order the same,
// since tree keys are compared as strings.
func labels(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	x, gap := 1000, 8999/n
	for i := range out {
		x += 1 + rng.Intn(gap)
		out[i] = x
	}
	return out
}

// relabel maps structural indices to this seed's labels, ascending.
func relabel(idx, label []int) []int {
	out := make([]int, len(idx))
	for i, x := range idx {
		out[i] = label[x]
	}
	sort.Ints(out)
	return out
}

// Generate derives a run's inputs.
//
// A workload fixes the system's shape — the capacities, which
// structural attributes and nodes each task and each scheduled op
// touches — from the workload's name. The seed decides the rest: the
// node and attribute identifiers that carry that shape (new ones every
// seed, in the same order), the value source and the fault schedule.
//
// The shape is fixed because the planner is chaotic in it: a different
// draw of capacities or tasks, or even the same shape under shuffled
// identifiers, yields a differently shaped forest whose rounds and
// replans cost up to twice as much, and ten seeds would then measure ten
// systems. Order-preserving identifiers leave every planner decision
// alone, so runs of different seeds do the same planning work on inputs
// that differ in every identifier and every value; what varies between
// them is what a user's data would vary. A differently shaped system is
// a different workload, not a different seed.
//
// The mutation schedule cycles create → modify → remove, so the
// demanded pair count stays near its starting value however many ops a
// run consumes; modify redraws the attribute set and keeps the nodes.
func Generate(w Workload, seed int64) Inputs {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	shape := rand.New(rand.NewSource(int64(h.Sum64())))
	ids := rand.New(rand.NewSource(seed))
	nodeLabel, attrLabel := labels(ids, w.Nodes), labels(ids, w.Attrs)

	in := Inputs{
		Spec: remo.Spec{
			CentralCapacity: w.Central,
			PerMessage:      10,
			PerValue:        1,
		},
		Options: rig.Options{
			Seed:         uint64(seed),
			RoundEveryMS: w.RoundEveryMS,
			StreamBuffer: 1 << 16,
			Shards:       w.Shards,
			PredictEps:   w.PredictEps,
		},
	}
	for i := 0; i < w.Nodes; i++ {
		in.Spec.Nodes = append(in.Spec.Nodes, remo.NodeSpec{
			ID:       nodeLabel[i],
			Capacity: w.CapLo + shape.Float64()*(w.CapHi-w.CapLo),
			Attrs:    attrLabel,
		})
	}
	for i := 0; i < w.Tasks; i++ {
		in.Spec.Tasks = append(in.Spec.Tasks, remo.TaskSpec{
			Name:  fmt.Sprintf("task-%d", i),
			Attrs: relabel(sample(shape, w.Attrs, w.AttrsPerTask), attrLabel),
			Nodes: relabel(sample(shape, w.Nodes, w.NodesPerTask), nodeLabel),
		})
	}
	if w.Faulty {
		in.Options.Chaos = &rig.Chaos{
			Seed:            uint64(seed),
			DropProb:        0.02,
			DelayProb:       0.05,
			MaxDelayRounds:  2,
			CrashEvery:      w.CrashEvery,
			CrashFor:        w.CrashFor,
			CrashNodes:      relabel(sample(shape, w.Nodes, 8), nodeLabel),
			ShardCrash:      1 + shape.Intn(w.Shards-1),
			ShardCrashRound: w.ShardCrashRound,
		}
	}
	for i := 0; len(in.Ops) < w.MaxOps; i++ {
		name := fmt.Sprintf("churn-%d", i)
		nodes := relabel(sample(shape, w.Nodes, w.OpNodes), nodeLabel)
		in.Ops = append(in.Ops,
			Op{Kind: "create", Name: name, Attrs: relabel(sample(shape, w.Attrs, w.OpAttrs), attrLabel), Nodes: nodes},
			Op{Kind: "modify", Name: name, Attrs: relabel(sample(shape, w.Attrs, w.OpAttrs), attrLabel), Nodes: nodes},
			Op{Kind: "remove", Name: name})
	}
	return in
}
