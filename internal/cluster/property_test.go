package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"remo/internal/chaos"
	"remo/internal/core"
	"remo/internal/model"
	"remo/internal/trace"
	"remo/internal/transport"
	"remo/internal/workload"
)

// generatedConfig realizes one property-generated workload plus a
// seed-derived chaos schedule as a cluster config.
func generatedConfig(tb testing.TB, seed int64) (Config, workload.Instance) {
	tb.Helper()
	in, err := workload.Generate(workload.DefaultBounds(), seed)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := in.Demand()
	if err != nil {
		tb.Fatal(err)
	}
	res := core.NewPlanner().Plan(in.Sys, d)

	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	rounds := 8 + rng.Intn(8)
	cc := &chaos.Config{
		DropProb:       rng.Float64() * 0.2,
		DelayProb:      rng.Float64() * 0.2,
		MaxDelayRounds: 1 + rng.Intn(3),
		Seed:           uint64(seed) * 2654435761,
		CrashWindows:   map[model.NodeID][]chaos.Window{},
	}
	var placed []model.NodeID
	for n := range res.Stats.Usage {
		placed = append(placed, n)
	}
	sort.Slice(placed, func(i, j int) bool { return placed[i] < placed[j] })
	rng.Shuffle(len(placed), func(i, j int) { placed[i], placed[j] = placed[j], placed[i] })
	for i := 0; i < len(placed) && i < 2; i++ {
		at := 2 + rng.Intn(rounds-2)
		w := chaos.Window{From: at, To: rounds}
		if rng.Intn(2) == 0 {
			w.To = at + 1 + rng.Intn(3)
		}
		cc.CrashWindows[placed[i]] = []chaos.Window{w}
	}
	return Config{
		Sys: in.Sys, Forest: res.Forest, Demand: d,
		Rounds: rounds, EnforceCapacity: true,
		Source: BurstyWalk{Seed: uint64(seed)},
		Chaos:  cc,
	}, in
}

// TestEngineEquivalenceGenerated re-proves the inline/worker-pool
// engine equivalence under the property generator instead of the fixed
// seed list in equivalence_test.go: any generated workload with any
// seed-derived chaos schedule must produce bit-identical results.
func TestEngineEquivalenceGenerated(t *testing.T) {
	const instances = 12
	for seed := int64(9000); seed < 9000+instances; seed++ {
		base, in := generatedConfig(t, seed)
		if len(base.Forest.Trees) == 0 {
			continue
		}
		inline := base
		inline.Workers = 1
		want, err := Run(inline)
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		for _, workers := range []int{0, 2} {
			fast := base
			fast.Workers = workers
			got, err := Run(fast)
			if err != nil {
				t.Fatalf("%v: %v", in, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: workers=%d diverged from the inline engine:\ngot  %+v\nwant %+v",
					in, workers, got, want)
			}
		}
	}
}

// chaosSchedule runs a config and returns its chaos injection events
// (drops and delays) in canonical order, independent of the engine's
// internal scheduling.
func chaosSchedule(tb testing.TB, cfg Config) []trace.Event {
	tb.Helper()
	rec := trace.NewRecorder(1 << 20)
	rec.Keep(trace.SendDrop, trace.Delayed)
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		tb.Fatal(err)
	}
	evs := rec.Events()
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.TreeKey < b.TreeKey
	})
	return evs
}

// TestChaosDeterminismAcrossTransports proves the chaos package's core
// promise end to end: because every drop/delay decision is a pure
// function of (seed, link, round, sequence), an identical seeded
// schedule injects the identical faults whether messages ride the
// in-process memory transport or real TCP sockets.
func TestChaosDeterminismAcrossTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	for _, seed := range []int64{9100, 9101, 9102} {
		base, in := generatedConfig(t, seed)
		if len(base.Forest.Trees) == 0 {
			continue
		}
		mem := chaosSchedule(t, base)

		tr, err := transport.NewTCP(base.Sys.NodeIDs())
		if err != nil {
			t.Fatal(err)
		}
		tcpCfg := base
		tcpCfg.Transport = tr
		tcp := chaosSchedule(t, tcpCfg)
		_ = tr.Close()

		if !reflect.DeepEqual(mem, tcp) {
			t.Fatalf("%v: chaos schedule diverged between transports: %d memory events vs %d TCP events",
				in, len(mem), len(tcp))
		}
		if len(mem) == 0 {
			t.Logf("%v: chaos enabled but injected nothing this run", in)
		}
	}
}

// captureTransport wraps the memory transport and keeps the wire
// encoding of every message sent through it — a source of organically
// shaped frames (multi-tree payloads, heartbeats, chaos survivors) for
// the codec fuzz corpus.
type captureTransport struct {
	inner  transport.Transport
	mu     sync.Mutex
	frames [][]byte
}

func (c *captureTransport) Send(msg transport.Message) error {
	if frame, err := transport.Encode(msg); err == nil {
		c.mu.Lock()
		c.frames = append(c.frames, frame)
		c.mu.Unlock()
	}
	return c.inner.Send(msg)
}

func (c *captureTransport) Drain(n model.NodeID) []transport.Message { return c.inner.Drain(n) }
func (c *captureTransport) Flush() error                             { return c.inner.Flush() }
func (c *captureTransport) Close() error                             { return c.inner.Close() }

// TestGenerateFuzzCorpus regenerates the checked-in FuzzDecode seed
// corpus from a live chaos run. It is a generator, not a test: set
// REMO_GEN_CORPUS=1 to rewrite internal/transport/testdata/fuzz/FuzzDecode.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("REMO_GEN_CORPUS") == "" {
		t.Skip("set REMO_GEN_CORPUS=1 to regenerate the fuzz corpus")
	}
	cfg, _ := generatedConfig(t, 9200)
	cap := &captureTransport{inner: transport.NewMemory(cfg.Sys.NodeIDs())}
	cfg.Transport = cap
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	// Deduplicate and keep a spread of frame shapes, preferring larger
	// (multi-value) frames that the hand-written seeds lack.
	seen := make(map[string]struct{})
	var unique [][]byte
	for _, f := range cap.frames {
		if _, dup := seen[string(f)]; dup {
			continue
		}
		seen[string(f)] = struct{}{}
		unique = append(unique, f)
	}
	sort.Slice(unique, func(i, j int) bool { return len(unique[i]) > len(unique[j]) })
	const keep = 16
	if len(unique) > keep {
		step := len(unique) / keep
		var spread [][]byte
		for i := 0; i < len(unique) && len(spread) < keep; i += step {
			spread = append(spread, unique[i])
		}
		unique = spread
	}

	dir := filepath.Join("..", "transport", "testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, f := range unique {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(f)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("chaos-%03d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus frames to %s (from %d captured messages)", len(unique), dir, len(cap.frames))
}
