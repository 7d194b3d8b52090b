package cluster

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"remo/internal/transport"
)

// resultHash is a 64-bit FNV-1a fingerprint of a full Result. %+v prints
// every field with floats in shortest round-trip form, so two results
// hash alike only when they are bit-identical.
func resultHash(r Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", r)
	return h.Sum64()
}

// goldenResults holds, per seeded equivalence case, the Result hash the
// goroutine-per-node round engine produced over the memory transport and
// over unbatched TCP (both gave the same hash on every case) at the last
// commit that carried those two paths. drop-every's entry is younger: the
// case moved from the retired DropEvery rule to DropProb, and its hash
// was taken by running that case at b7c4225, the last commit with the old
// chaos vocabulary. Every hash was re-taken when a round's score became
// an exact integer tally and Result lost its per-round error series: on
// every case the remaining fields matched the old engine's bit for bit
// except AvgPercentError, which moved by at most 2.4e-10 percentage
// points (the tally's 2^-32 quantisation). The hashes cover a result
// without its shard fields, which were zero when the hashes were taken;
// the test checks those fields on their own. transport/chaos was
// re-taken when drained mailboxes became stably sorted: its drains hold
// frames with equal (tree key, sender), which the unstable sort had left
// in an order set by the send phase's schedule, and only those frames
// moved (the key sequence of every drain stayed the same). It was
// re-taken again when due chaos-delayed frames began to be released
// before the send phase instead of after it, so a sender's older delayed
// frame now drains ahead of its fresh one: again the key sequence of
// every drain, and the values each drain carries, stayed the same, and
// only frames inside equal-key runs changed places. Adding a
// field to Result changes every hash: regenerate the table from the
// values a failing run prints, after checking the Workers: 1 reference
// is what changed.
var goldenResults = map[string]uint64{
	"engine/ample":          0x811ffcb2b644c03a,
	"engine/tight":          0xa5ec00b3d394e361,
	"engine/drop-every":     0xfe69826b80399079,
	"engine/crash-recover":  0x104274ed5cc6fec8,
	"engine/drop-prob":      0x6ca839024f674798,
	"engine/delay":          0x1f980dfb2d82908a,
	"engine/mixed-chaos":    0x2494798d3a3adbc3,
	"engine/very-tight":     0xe1c7615ef5add75b,
	"engine/aggregated":     0x088121129e487b21,
	"engine/larger":         0x5b8515d8c4b2c701,
	"engine/one-node-trees": 0xf047aedb254596dd,
	"engine/fig6a-small":    0xa0ccab9645638361,
	"transport/plain":       0x846ccbf3f6da7a44,
	"transport/tight":       0x01b2f27f4adfcd23,
	"transport/chaos":       0x9158bc6e0229a697,
}

// TestResultGolden pins the inline engine (Workers: 1), the worker pool
// (Workers: 4) and default-batched TCP to the results of the retired
// goroutine-per-node engine and unbatched TCP path, so bit-identity with
// them stays proven after their deletion, and pins the lone collector's
// shard fields to those of one live shard.
func TestResultGolden(t *testing.T) {
	suites := []struct {
		prefix string
		cases  []equivCase
	}{
		{"engine", equivCases()},
		{"transport", transportEquivCases()},
	}
	seen := 0
	for _, s := range suites {
		for _, ec := range s.cases {
			name := s.prefix + "/" + ec.name
			want, ok := goldenResults[name]
			if !ok {
				t.Fatalf("%s has no golden hash", name)
			}
			seen++
			t.Run(name, func(t *testing.T) {
				base := ec.config(t)
				for _, workers := range []int{1, 4} {
					cfg := base
					cfg.Workers = workers
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkLoneShard(t, res)
					if got := resultHash(withoutShardFields(res)); got != want {
						t.Errorf("workers=%d over memory: hash %#016x, golden %#016x", workers, got, want)
					}
				}
				if testing.Short() {
					return // real sockets
				}
				cfg := base
				tr, err := transport.NewTCP(cfg.Sys.NodeIDs())
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = tr.Close() }()
				cfg.Transport = tr
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkLoneShard(t, res)
				if got := resultHash(withoutShardFields(res)); got != want {
					t.Errorf("default-batched TCP: hash %#016x, golden %#016x", got, want)
				}
			})
		}
	}
	if seen != len(goldenResults) {
		t.Fatalf("golden table has %d entries, cases cover %d", len(goldenResults), seen)
	}
}

// checkLoneShard asserts the shard fields of a lone collector's run: one
// shard, live through the last round, with no shard churn.
func checkLoneShard(t *testing.T, res Result) {
	t.Helper()
	if res.Shards != 1 || res.ShardsDown != 0 || res.OrphanedTrees != 0 ||
		res.TreesRedispatched != 0 || res.LeaderElections != 0 ||
		!reflect.DeepEqual(res.ShardWatermarks, []int{res.Rounds - 1}) {
		t.Errorf("lone collector's shard fields: %d shards, %d down, %d orphaned, %d redispatched, %d elections, watermarks %v after %d rounds",
			res.Shards, res.ShardsDown, res.OrphanedTrees, res.TreesRedispatched,
			res.LeaderElections, res.ShardWatermarks, res.Rounds)
	}
}
