package cluster

import (
	"runtime"
	"sync"
)

// engine is the round engine's persistent worker pool. It keeps a
// fixed set of workers alive for the machine's lifetime and shards the
// state slice across them with phase-barrier semantics (forEach returns
// only when every shard finished); spawning a goroutine per node per
// phase instead costs 2n goroutine creations a round, which dominates
// scheduler work at Fig. 6 scales.
type engine struct {
	workers int
	tasks   chan func()
}

// newEngine starts a pool with the given number of workers (at least 1).
func newEngine(workers int) *engine {
	if workers < 1 {
		workers = 1
	}
	e := &engine{workers: workers, tasks: make(chan func(), workers)}
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

func (e *engine) worker() {
	for fn := range e.tasks {
		fn()
	}
}

// forEach applies fn to every state, sharding contiguously across the
// pool, and returns once all calls completed — the phase barrier. With
// one worker (or one state) it runs inline, paying no synchronization.
func (e *engine) forEach(states []*nodeState, fn func(*nodeState)) {
	n := len(states)
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for _, st := range states {
			fn(st)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		shard := states[i*n/w : (i+1)*n/w]
		e.tasks <- func() {
			defer wg.Done()
			for _, st := range shard {
				fn(st)
			}
		}
	}
	wg.Wait()
}

// close stops the workers. No forEach may be in flight or follow.
func (e *engine) close() {
	close(e.tasks)
}

// resolveWorkers maps the Config.Workers knob to a pool size: 0 (or
// less) means one worker per available CPU, positive values are used as
// given.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}
