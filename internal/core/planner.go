// Package core implements REMO's monitoring topology planner: the
// resource-aware multi-task optimization framework of §3.
//
// The planner is a guided local search over attribute-set partitions.
// Starting from the singleton-set partition (independently constructed
// per-attribute trees), each iteration enumerates the partition's
// neighborhood (one merge or one split away), ranks the candidates by
// estimated capacity-usage gain, and evaluates only the most promising
// ones with the expensive resource-aware procedure — constructing
// capacity-constrained collection trees and counting how many
// node-attribute pairs they deliver. The best-ranked candidate that
// improves the plan is adopted; the search stops when no evaluated
// candidate improves it.
//
// Evaluations are independent, so each iteration evaluates its ranked
// candidates in rank-ordered windows of one candidate per worker, each
// window concurrently on a bounded worker pool, and the two search
// starts (singleton-seeded and one-set-seeded) run in parallel. A
// window is scanned in rank order and the next one opens only if
// nothing was adopted, so the adopted move is still the best-ranked
// acceptable candidate — exactly the move the sequential
// first-improvement scan would take — and plans are identical at any
// worker count. An iteration launches at most workers-1 evaluations
// beyond the sequential scan's.
package core

import (
	"runtime"
	"sync"

	"remo/internal/agg"
	"remo/internal/alloc"
	"remo/internal/model"
	"remo/internal/partition"
	"remo/internal/plan"
	"remo/internal/task"
	"remo/internal/tree"
)

// Config parameterizes a Planner.
type Config struct {
	// Builder constructs individual trees (default: ADAPTIVE with the
	// optimized adjusting procedure).
	Builder tree.Builder
	// Alloc divides node capacity among trees (default: ORDERED).
	Alloc alloc.Sequencer
	// Spec is the in-network aggregation specification (nil = holistic).
	Spec *agg.Spec
	// Constraints restricts which attribute sets may form (nil = none).
	// Used by the reliability and frequency extensions.
	Constraints *partition.Constraints
	// EvalBudget bounds how many ranked candidates are evaluated per
	// search iteration; 0 evaluates the entire neighborhood (the
	// unguided ablation). Default 16.
	EvalBudget int
	// MaxIters bounds search iterations. Default 128.
	MaxIters int
	// Workers bounds the concurrent candidate evaluators — the width of
	// each rank-ordered evaluation window — and enables the parallel
	// multi-start: 0 (the default) uses GOMAXPROCS, 1 forces the fully
	// sequential search. Any value yields the same plan; only
	// wall-clock and the Evaluations count (the window holding the
	// adopted move is launched whole) differ.
	Workers int
	// NoTreeCache disables the cross-evaluation tree-build memo
	// (ablation knob; also the pre-memo baseline for benchmarks).
	NoTreeCache bool
	// TreeMemoCap bounds the tree-build memo's entry count; 0 uses the
	// default cap, negative values disable the bound. Entries beyond the
	// cap are evicted clock-wise (second chance), which matters for
	// long-lived incremental replanners that keep one cache across many
	// replans.
	TreeMemoCap int
	// SingleStart disables the one-set-seeded second search (ablation).
	SingleStart bool
	// NoSideways disables score-neutral merge moves (ablation).
	NoSideways bool
}

// Option mutates a Config.
type Option func(*Config)

// WithBuilder selects the tree construction scheme.
func WithBuilder(b tree.Builder) Option { return func(c *Config) { c.Builder = b } }

// WithAlloc selects the capacity allocation policy.
func WithAlloc(a alloc.Sequencer) Option { return func(c *Config) { c.Alloc = a } }

// WithSpec sets the in-network aggregation specification.
func WithSpec(s *agg.Spec) Option { return func(c *Config) { c.Spec = s } }

// WithConstraints restricts which attribute sets may form.
func WithConstraints(c *partition.Constraints) Option {
	return func(cfg *Config) { cfg.Constraints = c }
}

// WithEvalBudget bounds per-iteration candidate evaluations (0 = all).
func WithEvalBudget(k int) Option { return func(c *Config) { c.EvalBudget = k } }

// WithMaxIters bounds search iterations.
func WithMaxIters(n int) Option { return func(c *Config) { c.MaxIters = n } }

// WithWorkers pins the evaluation worker count (0 = GOMAXPROCS,
// 1 = sequential). Plans are identical at any setting.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithoutTreeCache disables the cross-evaluation tree-build memo
// (ablation knob).
func WithoutTreeCache() Option { return func(c *Config) { c.NoTreeCache = true } }

// WithTreeMemoCap bounds the tree-build memo (0 = default cap,
// negative = unbounded).
func WithTreeMemoCap(n int) Option { return func(c *Config) { c.TreeMemoCap = n } }

// WithSingleStart disables the multi-start search (ablation knob).
func WithSingleStart() Option { return func(c *Config) { c.SingleStart = true } }

// WithNoSideways disables plateau-crossing merge moves (ablation knob).
func WithNoSideways() Option { return func(c *Config) { c.NoSideways = true } }

// Planner plans monitoring topologies.
type Planner struct {
	cfg Config
}

// NewPlanner returns a planner with the given options applied over
// REMO's defaults.
func NewPlanner(opts ...Option) *Planner {
	cfg := Config{
		Builder:    tree.New(tree.Adaptive),
		Alloc:      alloc.New(alloc.Ordered),
		EvalBudget: 16,
		MaxIters:   128,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Builder == nil {
		cfg.Builder = tree.New(tree.Adaptive)
	}
	if cfg.Alloc == nil {
		cfg.Alloc = alloc.New(alloc.Ordered)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 128
	}
	return &Planner{cfg: cfg}
}

// workers resolves the configured worker count.
func (p *Planner) workers() int {
	if p.cfg.Workers > 0 {
		return p.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is a finished plan plus search telemetry.
type Result struct {
	// Forest is the planned monitoring topology.
	Forest *plan.Forest
	// Stats is the forest's evaluated resource profile.
	Stats plan.Stats
	// Partition is the attribute-set partition behind the forest.
	Partition []model.AttrSet
	// Iterations is the number of accepted search moves.
	Iterations int
	// Evaluations counts resource-aware evaluations launched. A
	// parallel iteration evaluates the whole window that holds its
	// adopted candidate, so this may exceed the sequential count (which
	// stops at the adopted candidate) by at most workers-1 per
	// iteration; the chosen moves — and hence the plan — are the same.
	Evaluations int
	// TreeBuilds and TreeReuses count collection-tree constructions
	// performed vs avoided by the cross-evaluation tree-build memo.
	TreeBuilds int
	// TreeReuses counts memo hits (see TreeBuilds).
	TreeReuses int

	// missed counts, per set of Partition, the demanded pairs its tree
	// does not collect: what the ranking's split gains read. Set by
	// every evaluation inside the search.
	missed []int
}

// Plan runs the full REMO planning algorithm for demand d on system sys.
//
// The local search runs twice — once from the singleton-set partition
// (the paper's starting point of independently constructed trees) and
// once from the one-set partition — and the better plan wins. The two
// extremes bracket the search space (§3.1), so multi-start guarantees
// the planner never loses to either baseline scheme even when the
// guided neighborhood ranking misses a crossing move. With more than
// one worker the two starts run in parallel goroutines (each with its
// own evaluation cache), which changes nothing about either search.
func (p *Planner) Plan(sys *model.System, d *task.Demand) Result {
	universe := d.Universe()
	if universe.Empty() {
		return p.PlanFrom(sys, d, nil)
	}
	if p.cfg.SingleStart {
		return p.PlanFrom(sys, d, partition.Singleton(universe))
	}
	from := func(sets []model.AttrSet) Result { return p.search(sys, d, sets, p.newCache(d), nil) }
	var fromSP, fromOP Result
	if p.workers() > 1 {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			fromSP = from(partition.Singleton(universe))
		}()
		go func() {
			defer wg.Done()
			fromOP = from(partition.FirstFitAllowed(universe, p.cfg.Constraints))
		}()
		wg.Wait()
	} else {
		fromSP = from(partition.Singleton(universe))
		fromOP = from(partition.FirstFitAllowed(universe, p.cfg.Constraints))
	}
	fromOP.Evaluations += fromSP.Evaluations
	fromOP.Iterations += fromSP.Iterations
	fromOP.TreeBuilds += fromSP.TreeBuilds
	fromOP.TreeReuses += fromSP.TreeReuses
	if fromSP.Stats.Score().Better(fromOP.Stats.Score()) {
		fromSP.Evaluations = fromOP.Evaluations
		fromSP.Iterations = fromOP.Iterations
		fromSP.TreeBuilds = fromOP.TreeBuilds
		fromSP.TreeReuses = fromOP.TreeReuses
		return fromSP.leave()
	}
	return fromOP.leave()
}

// leave clones the result's forest as it leaves the search: inside it,
// forests share their trees with the evaluation cache's memo.
func (r Result) leave() Result {
	r.Forest = r.Forest.Clone()
	return r
}

// candEval is one candidate's evaluation outcome, filled by the worker
// pool slot that owns the candidate's rank position.
type candEval struct {
	sets   []model.AttrSet
	forest *plan.Forest
	stats  plan.Stats
	missed []int
}

// PlanFrom runs the guided local search starting from the given
// partition (used by the adaptation planner to resume from the current
// topology).
//
// The search is first-improvement over the ranked candidate list. When
// no evaluated candidate improves the plan, the search may still take a
// score-neutral merge ("sideways" move): merging trees strictly shrinks
// the partition, so sideways merges cannot cycle, and they let the
// search cross the plateaus that arise when several merges are needed
// before capacity freed at the collector pays off. The best plan seen is
// always returned.
//
// With more than one worker each iteration evaluates its ranked
// candidates in windows of one candidate per worker, each window
// concurrently, and scans every window in rank order with the exact
// acceptance logic of the sequential loop, opening the next window only
// when nothing was adopted — so the adopted move, and therefore the
// final plan, is identical to the sequential search's.
func (p *Planner) PlanFrom(sys *model.System, d *task.Demand, sets []model.AttrSet) Result {
	return p.search(sys, d, sets, p.newCache(d), nil).leave()
}

// newCache builds an evaluation cache honoring the configured memo cap.
func (p *Planner) newCache(d *task.Demand) *evalCache {
	return newEvalCache(d, p.cfg.TreeMemoCap)
}

// searchScope restricts the guided search to a dirty neighborhood: only
// moves touching a dirty set are ranked, and the sets an adopted move
// produces become dirty in turn, so improvements can propagate outward
// from the original neighborhood without reopening the whole partition.
type searchScope struct {
	dirty map[string]struct{}
}

// dirtyAt adapts the scope to partition.Top's index-based predicate.
func (s *searchScope) dirtyAt(sets []model.AttrSet) func(int) bool {
	return func(i int) bool {
		_, ok := s.dirty[sets[i].Key()]
		return ok
	}
}

// absorb marks the sets an adopted move created as dirty.
func (s *searchScope) absorb(before, after []model.AttrSet) {
	prev := make(map[string]struct{}, len(before))
	for _, set := range before {
		prev[set.Key()] = struct{}{}
	}
	for _, set := range after {
		if _, old := prev[set.Key()]; !old {
			s.dirty[set.Key()] = struct{}{}
		}
	}
}

// search runs the guided local search from the given partition using
// the given (possibly pre-warmed) cache. A nil scope searches the full
// neighborhood (PlanFrom); a non-nil scope restricts candidate
// generation to the dirty sets (incremental replanning).
func (p *Planner) search(sys *model.System, d *task.Demand, sets []model.AttrSet, cache *evalCache, scope *searchScope) Result {
	res := Result{Partition: sets}
	res.Forest, res.Stats, res.missed = p.evaluate(sys, d, sets, cache)
	res.Evaluations = 1

	cur := res
	best := res.Stats.Score()
	sidewaysLeft := len(sets)
	if scope != nil {
		sidewaysLeft = len(scope.dirty)
	}
	if p.cfg.NoSideways {
		sidewaysLeft = 0
	}
	workers := p.workers()

	for iter := 0; iter < p.cfg.MaxIters; iter++ {
		gctx := partition.GainContext{
			Demand:     d,
			PerMessage: sys.Cost.PerMessage,
			PerValue:   sys.Cost.PerValue,
			Missed:     cur.missed,
			AttrBits:   cache.bits(),
		}
		var dirty func(int) bool
		if scope != nil {
			dirty = scope.dirtyAt(cur.Partition)
		}
		var allow func(partition.Op) bool
		if cons := p.cfg.Constraints; cons != nil {
			sets := cur.Partition
			allow = func(op partition.Op) bool { return cons.AllowOp(sets, op) }
		}
		// The EvalBudget best-ranked allowed moves, in rank order.
		cands := partition.Top(cur.Partition, gctx, dirty, allow, p.cfg.EvalBudget)

		improved := false
		sidewaysTaken := false
		curScore := cur.Stats.Score()

		adopt := func(c partition.Candidate, e candEval) (accepted bool) {
			sc := e.stats.Score()
			if sc.Better(curScore) {
				if scope != nil {
					scope.absorb(cur.Partition, e.sets)
				}
				cur = Result{Partition: e.sets, Forest: e.forest, Stats: e.stats, missed: e.missed}
				res.Iterations++
				improved = true
				return true
			}
			if !sidewaysTaken && sidewaysLeft > 0 &&
				c.Op.Kind == partition.MergeOp && !curScore.Better(sc) {
				if scope != nil {
					scope.absorb(cur.Partition, e.sets)
				}
				cur = Result{Partition: e.sets, Forest: e.forest, Stats: e.stats, missed: e.missed}
				sidewaysTaken = true
				sidewaysLeft--
				return true
			}
			return false
		}

		// Evaluate the ranked candidates one window of `workers` at a
		// time, concurrently, and scan each window in rank order: the
		// first acceptable candidate is the one the lazy sequential scan
		// stops at, and no window opens past it, so an iteration launches
		// at most workers-1 evaluations the sequential scan would not.
		// One worker makes every window a single inline evaluation.
		base := cur.Partition
		outs := make([]candEval, min(workers, len(cands)))
	scan:
		for lo := 0; lo < len(cands); lo += len(outs) {
			win := cands[lo:min(lo+len(outs), len(cands))]
			runIndexed(workers, len(win), func(i int) {
				sets := partition.Apply(base, win[i].Op)
				forest, stats, missed := p.evaluate(sys, d, sets, cache)
				outs[i] = candEval{sets: sets, forest: forest, stats: stats, missed: missed}
			})
			res.Evaluations += len(win)
			for i, c := range win {
				if adopt(c, outs[i]) {
					break scan
				}
			}
		}
		if cur.Stats.Score().Better(best) {
			best = cur.Stats.Score()
			res.Partition, res.Forest, res.Stats = cur.Partition, cur.Forest, cur.Stats
		}
		if !improved && !sidewaysTaken {
			break
		}
	}
	res.TreeBuilds = int(cache.builds.Load())
	res.TreeReuses = int(cache.reuses.Load())
	return res
}

// PlanPartition evaluates a fixed partition without searching — the SP
// and OP baselines use this.
func (p *Planner) PlanPartition(sys *model.System, d *task.Demand, sets []model.AttrSet) Result {
	forest, stats := p.Evaluate(sys, d, sets)
	return Result{
		Forest:      forest,
		Stats:       stats,
		Partition:   sets,
		Evaluations: 1,
	}
}

// Evaluate performs the resource-aware evaluation of a partition: order
// the trees per the allocation policy, construct each under its capacity
// budget, and compute the resulting forest's profile.
func (p *Planner) Evaluate(sys *model.System, d *task.Demand, sets []model.AttrSet) (*plan.Forest, plan.Stats) {
	forest, stats, _ := p.evaluate(sys, d, sets, p.newCache(d))
	return forest.Clone(), stats
}

// evaluate is Evaluate over a search's cache, whose memo trees the
// returned forest shares. It also returns, per set, the demanded pairs
// its tree leaves uncollected: the set's cached pair count minus its
// tree's LocalPairs.
func (p *Planner) evaluate(sys *model.System, d *task.Demand, sets []model.AttrSet, cache *evalCache) (*plan.Forest, plan.Stats, []int) {
	entries := make([]*setEntry, len(sets))
	req := alloc.Request{
		Sys: sys, Demand: d, Sets: sets,
		Parts: make([][]model.NodeID, len(sets)),
		Caps:  make([][]float64, len(sets)),
	}
	for k, set := range sets {
		entries[k] = cache.entry(sys, set)
		req.Parts[k], req.Caps[k] = entries[k].parts, entries[k].caps
	}
	order := p.cfg.Alloc.Order(req)

	built := make([]*plan.Tree, len(sets))
	stats := make([]plan.TreeStats, len(sets))
	// used is the charge so far per global node index; usedK and avail
	// are the tree under construction's slices of it, participant-aligned.
	used := make([]float64, cache.nodeCount())
	var usedK, avail []float64
	var centralUsed float64
	for _, k := range order {
		e := entries[k]
		usedK = usedK[:0]
		for _, g := range e.idx {
			usedK = append(usedK, used[g])
		}
		avail = p.cfg.Alloc.Avail(req, k, usedK, avail)
		centralAvail := p.cfg.Alloc.CentralAvail(req, k, centralUsed)

		var key treeKey
		memo := !p.cfg.NoTreeCache
		if memo {
			key = buildTreeKey(e.key, e.parts, avail, centralAvail)
			if cb, ok := cache.lookupTree(key); ok {
				built[k] = cb.tree
				stats[k] = cb.treeStats(d, sys, p.cfg.Spec)
				for i, g := range e.idx {
					used[g] += cb.used[i]
				}
				centralUsed += cb.centralUsed
				continue
			}
		}
		r := p.cfg.Builder.Build(tree.Context{
			Sys:          sys,
			Demand:       d,
			Spec:         p.cfg.Spec,
			Attrs:        sets[k],
			Nodes:        e.parts,
			Avail:        avail,
			CentralAvail: centralAvail,
			LocalWeights: e.weights,
		})
		for i, g := range e.idx {
			used[g] += r.Used[i]
		}
		centralUsed += r.CentralUsed
		if memo {
			cb := cache.storeTree(key, sets[k], r)
			built[k] = cb.tree
			stats[k] = cb.treeStats(d, sys, p.cfg.Spec)
		} else {
			cache.builds.Add(1)
			built[k] = r.Tree
			stats[k] = plan.ComputeTreeStats(r.Tree, d, sys, p.cfg.Spec)
		}
	}

	// The forest and its profile, each tree's stats folded in forest
	// order: a memo hit reuses the stats computed when its tree was built.
	forest := plan.NewForest()
	perTree := make([]plan.TreeStats, 0, len(sets))
	missed := make([]int, len(sets))
	for k, t := range built {
		missed[k] = entries[k].pairs - stats[k].LocalPairs
		if t != nil && !t.Empty() {
			forest.Add(t)
			perTree = append(perTree, stats[k])
		}
	}
	return forest, plan.SumStats(perTree), missed
}

// Spec exposes the planner's aggregation spec (used by deployment).
func (p *Planner) Spec() *agg.Spec { return p.cfg.Spec }

// Builder exposes the planner's tree builder (used by adaptation).
func (p *Planner) Builder() tree.Builder { return p.cfg.Builder }

// Alloc exposes the planner's allocation policy (used by adaptation).
func (p *Planner) Alloc() alloc.Sequencer { return p.cfg.Alloc }

// Constraints exposes the planner's partition constraints (used by
// adaptation).
func (p *Planner) Constraints() *partition.Constraints { return p.cfg.Constraints }
