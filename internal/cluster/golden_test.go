package cluster

import (
	"fmt"
	"hash/fnv"
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
// chaos vocabulary. Adding a field to Result changes every hash:
// regenerate the table from the values a failing run prints, after
// checking the Workers: 1 reference is what changed.
var goldenResults = map[string]uint64{
	"engine/ample":          0x61b6e9a731ff046e,
	"engine/tight":          0x7920b9d58c823d78,
	"engine/drop-every":     0x55abc80c20097f61,
	"engine/crash-recover":  0xb267e630bbea1e5f,
	"engine/drop-prob":      0x57c871045ed6a65a,
	"engine/delay":          0xecae58beb64f83b3,
	"engine/mixed-chaos":    0x323ed53cc3fcb276,
	"engine/very-tight":     0xc0ddc2e69873ed83,
	"engine/aggregated":     0x5a32dc710e8e6ed1,
	"engine/larger":         0xb98f4b3855250a4e,
	"engine/one-node-trees": 0x254527bd560d59b5,
	"engine/fig6a-small":    0xa95729d707338acc,
	"transport/plain":       0x8c1c9b3cdb802548,
	"transport/tight":       0xa87a727530586259,
	"transport/chaos":       0x2ceb074ce7a6c219,
}

// TestResultGolden pins the inline engine (Workers: 1), the worker pool
// (Workers: 4) and default-batched TCP to the results of the retired
// goroutine-per-node engine and unbatched TCP path, so bit-identity with
// them stays proven after their deletion.
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
					if got := resultHash(res); got != want {
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
				if got := resultHash(res); got != want {
					t.Errorf("default-batched TCP: hash %#016x, golden %#016x", got, want)
				}
			})
		}
	}
	if seen != len(goldenResults) {
		t.Fatalf("golden table has %d entries, cases cover %d", len(goldenResults), seen)
	}
}
