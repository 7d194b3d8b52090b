package serve

// Tests of the stream: the hand encoder against encoding/json, the
// per-round hand-off under every ?kinds= filter, and the accounting of
// what a subscriber loses.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"remo"
)

// sseEvent is one event read off a stream.
type sseEvent struct {
	Kind string
	Data string
}

// readSSE reads the next event off a stream, skipping comments.
func readSSE(rd *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			if ev.Kind != "" {
				return ev, nil
			}
		case strings.HasPrefix(line, "event: "):
			ev.Kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// parseSSE splits stream text into its events.
func parseSSE(text []byte) []sseEvent {
	rd := bufio.NewReader(bytes.NewReader(text))
	var out []sseEvent
	for {
		ev, err := readSSE(rd)
		if err != nil {
			return out
		}
		out = append(out, ev)
	}
}

// nextEvents waits for what the broker queues for sub next and parses
// it; open is false once the broker has let sub go.
func nextEvents(tb testing.TB, b *broker, sub *subscriber) (evs []sseEvent, open bool) {
	select {
	case <-sub.wake:
	case <-time.After(10 * time.Second):
		tb.Error("nothing reached the subscriber within 10s")
		return nil, false
	}
	queued, open := b.take(sub, nil)
	return parseSSE(queued), open
}

// TestValueEncoderMatchesJSON: the hand encoder writes exactly what
// json.Marshal writes for a value event, over random finite bit patterns
// and the points where encoding/json changes format.
func TestValueEncoderMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ints := []int{0, 1, -1, 7, 1e6, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, 1e-6, 1e20, 1e21, -1e21,
		5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 123456789.125, 1e-9, 2.5e-8}
	for len(floats) < 10000+17 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	for i, f := range floats {
		v := valueWire{Node: ints[i%len(ints)], Attr: ints[(i/3)%len(ints)], Round: ints[(i/7)%len(ints)], Value: f}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendValueJSON(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): encoded %s, json.Marshal %s", f, math.Float64bits(f), got, want)
		}
	}
	var c chunk
	rw := roundWire{Round: math.MaxInt64, Fingerprint: math.MaxUint64}
	c.appendRound(rw)
	want, _ := json.Marshal(rw)
	if got := string(c.buf); got != "event: round\ndata: "+string(want)+"\n\n" {
		t.Fatalf("round event %q, json.Marshal %s", got, want)
	}
}

// TestStreamCountsNonFiniteValues: a value the stream cannot encode is
// counted as dropped and announced, never lost silently, so what a
// subscriber receives plus what it was told it lost is every value the
// collector delivered.
func TestStreamCountsNonFiniteValues(t *testing.T) {
	sys := testSystem(t, 12, 600)
	s := bootServer(t, sys, Config{
		RoundEvery:   time.Hour, // the test runs the rounds
		StreamBuffer: 1 << 14,
		Monitor: remo.MonitorConfig{Source: remo.ValueFunc(func(n remo.NodeID, a remo.AttrID, round int) float64 {
			if n == 3 && a == 1 {
				return math.NaN()
			}
			return float64(round) + float64(n)/100
		})},
	}, allOf(sys, 1, 2))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/stream?kinds=value")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	for s.ins.streamSubs.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 12; i++ {
		s.runRound()
	}
	delivered := s.Monitor().Report().ValuesDelivered
	events, dropped := int(s.ins.streamEvents.Value()), int(s.ins.streamDropped.Value())
	if events+dropped != delivered {
		t.Fatalf("collector delivered %d values; stream counted %d events + %d dropped", delivered, events, dropped)
	}
	if dropped == 0 {
		t.Fatal("fixture: no NaN value reached the collector")
	}
	rd := bufio.NewReader(resp.Body)
	values, told := 0, 0
	for values+told < delivered {
		ev, err := readSSE(rd)
		if err != nil {
			t.Fatalf("after %d values and %d told lost: %v", values, told, err)
		}
		switch ev.Kind {
		case "value":
			values++
		case "gap":
			var gap struct{ Dropped int }
			if err := json.Unmarshal([]byte(ev.Data), &gap); err != nil {
				t.Fatal(err)
			}
			told += gap.Dropped
		default:
			t.Fatalf("a kinds=value subscriber got %+v", ev)
		}
	}
	if values != events || told != dropped {
		t.Fatalf("subscriber got %d values and was told of %d lost; stream counted %d events + %d dropped",
			values, told, events, dropped)
	}
}

// stallWriter is a ResponseWriter whose writes block until released: a
// stream client that stops reading.
type stallWriter struct {
	header  http.Header
	release chan struct{}
	mu      sync.Mutex
	out     bytes.Buffer
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}

func (w *stallWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.out.Write(p)
}

func (w *stallWriter) text() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return bytes.Clone(w.out.Bytes())
}

// TestStreamGapAfterSlowSubscriber: a subscriber that stops reading
// loses whole rounds once its backlog is full, and when it reads again
// the stream tells it, in one gap event, exactly how many events it lost.
func TestStreamGapAfterSlowSubscriber(t *testing.T) {
	sys := testSystem(t, 12, 600)
	// A backlog of 30 events holds one round of 24 values and its round
	// event, not two.
	s := bootServer(t, sys, Config{RoundEvery: time.Hour, StreamBuffer: 30}, allOf(sys, 1, 2))
	w := &stallWriter{header: http.Header{}, release: make(chan struct{})}
	var released sync.Once
	resume := func() { released.Do(func() { close(w.release) }) }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleStream(w, httptest.NewRequest(http.MethodGet, "/v1/stream", nil).WithContext(ctx))
	}()
	t.Cleanup(func() { resume(); cancel(); <-done })
	for !s.broker.listening() {
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 8; i++ {
		s.runRound()
	}
	dropped := int(s.ins.streamDropped.Value())
	if dropped == 0 {
		t.Fatal("fixture: a stalled subscriber lost nothing")
	}
	resume()
	// Reading again: each round's event must arrive before the next round
	// runs, so nothing more is lost.
	for i := 0; i < 3; i++ {
		s.runRound()
		last := fmt.Sprintf(`event: round`+"\n"+`data: {"round":%d,`, s.Monitor().Round()-1)
		for deadline := time.Now().Add(10 * time.Second); !bytes.Contains(w.text(), []byte(last)); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d never reached the subscriber", s.Monitor().Round()-1)
			}
		}
	}
	var gaps []int
	events := 0
	for _, ev := range parseSSE(w.text()) {
		if ev.Kind != "gap" {
			events++
			continue
		}
		var gap struct{ Dropped int }
		if err := json.Unmarshal([]byte(ev.Data), &gap); err != nil {
			t.Fatal(err)
		}
		gaps = append(gaps, gap.Dropped)
	}
	if len(gaps) != 1 || gaps[0] != dropped || int(s.ins.streamDropped.Value()) != dropped {
		t.Fatalf("gap events %v; remo_stream_dropped_total %d while stalled, %d now",
			gaps, dropped, s.ins.streamDropped.Value())
	}
	if got := int(s.ins.streamEvents.Value()); events != got {
		t.Fatalf("subscriber got %d events, remo_stream_events_total says %d", events, got)
	}
}

// TestStreamOrderPerKind: with a trigger firing on every value of one
// attribute, each ?kinds= filter sees, per round, its kinds of the
// round's values and alerts in observation order (an alert ahead of the
// value that fired it), then the round's event.
func TestStreamOrderPerKind(t *testing.T) {
	const rounds = 6
	sys := testSystem(t, 12, 600)
	var observed []valueWire // what OnValue saw, in order
	var ends []int           // len(observed) at the end of each round
	s := bootServer(t, sys, Config{
		RoundEvery: time.Hour,
		Monitor: remo.MonitorConfig{OnValue: func(p remo.Pair, round int, v float64) {
			observed = append(observed, valueWire{Node: int(p.Node), Attr: int(p.Attr), Round: round, Value: v})
		}},
	}, allOf(sys, 1, 2))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if code, body := do(t, http.MethodPost, ts.URL+"/v1/triggers", `{"name":"hot","attr":1,"cond":"above","threshold":-1e9}`); code != http.StatusCreated {
		t.Fatalf("trigger create: %d %s", code, body)
	}

	filters := []string{"", "?kinds=value", "?kinds=round", "?kinds=alert"}
	readers := make([]*bufio.Reader, len(filters))
	for i, q := range filters {
		resp, err := http.Get(ts.URL + "/v1/stream" + q)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		readers[i] = bufio.NewReader(resp.Body)
	}
	for s.broker.live.Load() < int32(len(filters)) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < rounds; i++ {
		s.runRound()
		ends = append(ends, len(observed))
	}

	// What every subscriber is owed: per round, an alert ahead of each
	// attribute-1 value, each value, then the round event.
	var want []sseEvent
	start := 0
	for r, end := range ends {
		for _, v := range observed[start:end] {
			data := string(appendValueJSON(nil, v))
			if v.Attr == 1 {
				a, _ := json.Marshal(alertJSON{Trigger: "hot", Node: v.Node, Attr: v.Attr, Round: v.Round, Value: v.Value})
				want = append(want, sseEvent{"alert", string(a)})
			}
			want = append(want, sseEvent{"value", data})
		}
		rw, _ := json.Marshal(roundWire{Round: r, Fingerprint: s.Monitor().Fingerprint()})
		want = append(want, sseEvent{"round", string(rw)})
		start = end
	}
	if len(observed) == 0 {
		t.Fatal("fixture: no value was observed")
	}
	for i, q := range filters {
		var sub []sseEvent
		for _, ev := range want {
			if q == "" || q == "?kinds="+ev.Kind {
				sub = append(sub, ev)
			}
		}
		for j, w := range sub {
			got, err := readSSE(readers[i])
			if err != nil {
				t.Fatalf("%q: event %d: %v", q, j, err)
			}
			if got != w {
				t.Fatalf("%q: event %d is %+v, want %+v", q, j, got, w)
			}
		}
	}
}
