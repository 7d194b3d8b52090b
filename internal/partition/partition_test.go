package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"remo/internal/model"
	"remo/internal/task"
)

func TestSingletonAndOneSet(t *testing.T) {
	u := model.NewAttrSet(1, 2, 3)
	sp := Singleton(u)
	if len(sp) != 3 {
		t.Fatalf("Singleton len = %d, want 3", len(sp))
	}
	for _, s := range sp {
		if s.Len() != 1 {
			t.Fatalf("Singleton set %v not singleton", s)
		}
	}
	op := OneSet(u)
	if len(op) != 1 || !op[0].Equal(u) {
		t.Fatalf("OneSet = %v", op)
	}
	if OneSet(model.AttrSet{}) != nil {
		t.Fatal("OneSet(empty) != nil")
	}
	if err := Validate(sp, u); err != nil {
		t.Fatal(err)
	}
	if err := Validate(op, u); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMerge(t *testing.T) {
	sets := []model.AttrSet{
		model.NewAttrSet(1),
		model.NewAttrSet(2),
		model.NewAttrSet(3),
	}
	out := Apply(sets, Op{Kind: MergeOp, I: 0, J: 2})
	if len(out) != 2 {
		t.Fatalf("merged partition = %v", out)
	}
	if !out[0].Equal(model.NewAttrSet(1, 3)) || !out[1].Equal(model.NewAttrSet(2)) {
		t.Fatalf("merged partition = %v", out)
	}
	// Input unchanged.
	if sets[0].Len() != 1 {
		t.Fatal("Apply mutated input")
	}
}

func TestApplySplit(t *testing.T) {
	sets := []model.AttrSet{model.NewAttrSet(1, 2, 3)}
	out := Apply(sets, Op{Kind: SplitOp, I: 0, Attr: 2})
	if len(out) != 2 {
		t.Fatalf("split partition = %v", out)
	}
	if !out[0].Equal(model.NewAttrSet(1, 3)) || !out[1].Equal(model.NewAttrSet(2)) {
		t.Fatalf("split partition = %v", out)
	}
	// Splitting a singleton's only attribute just re-creates it.
	single := []model.AttrSet{model.NewAttrSet(7)}
	out2 := Apply(single, Op{Kind: SplitOp, I: 0, Attr: 7})
	if len(out2) != 1 || !out2[0].Equal(model.NewAttrSet(7)) {
		t.Fatalf("split singleton = %v", out2)
	}
}

func TestNeighborsCount(t *testing.T) {
	// 3 sets: C(3,2)=3 merges. Splits: only multi-attr sets contribute.
	sets := []model.AttrSet{
		model.NewAttrSet(1, 2),
		model.NewAttrSet(3),
		model.NewAttrSet(4),
	}
	ops := Neighbors(sets)
	var merges, splits int
	for _, op := range ops {
		switch op.Kind {
		case MergeOp:
			merges++
		case SplitOp:
			splits++
		}
	}
	if merges != 3 || splits != 2 {
		t.Fatalf("merges=%d splits=%d, want 3/2", merges, splits)
	}
}

func TestApplyPreservesUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		nAttrs := 2 + rng.Intn(8)
		attrs := make([]model.AttrID, nAttrs)
		for i := range attrs {
			attrs[i] = model.AttrID(i + 1)
		}
		universe := model.NewAttrSet(attrs...)
		sets := Singleton(universe)
		// Random walk through the neighborhood.
		for step := 0; step < 10; step++ {
			ops := Neighbors(sets)
			if len(ops) == 0 {
				break
			}
			sets = Apply(sets, ops[rng.Intn(len(ops))])
			if err := Validate(sets, universe); err != nil {
				t.Fatalf("trial %d step %d: %v (sets=%v)", trial, step, err, sets)
			}
		}
	}
}

func TestRankPrefersOverlappingMerges(t *testing.T) {
	d := task.NewDemand()
	// Attrs 1 and 2 share nodes 1-5; attr 3 lives on disjoint nodes.
	for n := model.NodeID(1); n <= 5; n++ {
		d.Set(n, 1, 1)
		d.Set(n, 2, 1)
	}
	for n := model.NodeID(6); n <= 8; n++ {
		d.Set(n, 3, 1)
	}
	sets := Singleton(d.Universe())
	cands := Rank(sets, GainContext{Demand: d, PerMessage: 10, PerValue: 1})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	top := cands[0]
	if top.Op.Kind != MergeOp {
		t.Fatalf("top candidate = %v, want a merge", top.Op)
	}
	// The best merge must unite the overlapping attrs 1 and 2 (sets are
	// index-ordered: 0->attr1, 1->attr2, 2->attr3).
	if !(top.Op.I == 0 && top.Op.J == 1) {
		t.Fatalf("top merge = %v, want merge(0,1)", top.Op)
	}
	if top.Gain != 50 { // C * 5 overlapping nodes
		t.Fatalf("top gain = %v, want 50", top.Gain)
	}
}

func TestRankRewardsSplitsOfCongestedTrees(t *testing.T) {
	d := task.NewDemand()
	for n := model.NodeID(1); n <= 4; n++ {
		d.Set(n, 1, 1)
		d.Set(n, 2, 1)
	}
	sets := []model.AttrSet{model.NewAttrSet(1, 2)}
	// The single tree misses many pairs: splits should rank above no-op.
	congested := Rank(sets, GainContext{Demand: d, PerMessage: 1, PerValue: 1, Missed: []int{6}})
	if len(congested) == 0 || congested[0].Op.Kind != SplitOp {
		t.Fatalf("top candidate = %+v, want a split", congested)
	}
	if congested[0].Gain <= 0 {
		t.Fatalf("split gain = %v, want > 0", congested[0].Gain)
	}
	// Without misses the same split has negative estimated gain.
	healthy := Rank(sets, GainContext{Demand: d, PerMessage: 1, PerValue: 1})
	for _, c := range healthy {
		if c.Op.Kind == SplitOp && c.Gain > 0 {
			t.Fatalf("healthy split gain = %v, want <= 0", c.Gain)
		}
	}
}

func TestValidateRejectsBadPartitions(t *testing.T) {
	u := model.NewAttrSet(1, 2)
	overlap := []model.AttrSet{model.NewAttrSet(1, 2), model.NewAttrSet(2)}
	if err := Validate(overlap, u); err == nil {
		t.Fatal("overlap validated")
	}
	incomplete := []model.AttrSet{model.NewAttrSet(1)}
	if err := Validate(incomplete, u); err == nil {
		t.Fatal("incomplete partition validated")
	}
	empty := []model.AttrSet{model.NewAttrSet(1, 2), {}}
	if err := Validate(empty, u); err == nil {
		t.Fatal("empty set validated")
	}
}

func TestUniverse(t *testing.T) {
	sets := []model.AttrSet{model.NewAttrSet(1), model.NewAttrSet(2, 3)}
	if got := Universe(sets); !got.Equal(model.NewAttrSet(1, 2, 3)) {
		t.Fatalf("Universe = %v", got)
	}
}

// TestTopMatchesStableRank pins partition.Top's selection: for every k,
// with and without a move filter and a dirty scope, it returns exactly
// the first k moves of the full ranking (a stable sort by decreasing
// gain) that survive the filter — the candidates the planner evaluates.
func TestTopMatchesStableRank(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		d := task.NewDemand()
		for n := model.NodeID(1); n <= 30; n++ {
			for a := model.AttrID(1); a <= 9; a++ {
				if rng.Intn(3) == 0 {
					d.Set(n, a, 1)
				}
			}
		}
		u := d.Universe()
		var sets []model.AttrSet
		for _, a := range u.Attrs() {
			if len(sets) > 0 && rng.Intn(2) == 0 {
				sets[len(sets)-1] = sets[len(sets)-1].Union(model.NewAttrSet(a))
			} else {
				sets = append(sets, model.NewAttrSet(a))
			}
		}
		missed := make([]int, len(sets))
		for i := range missed {
			missed[i] = rng.Intn(20)
		}
		// Few distinct gains, so ties are common.
		ctx := GainContext{Demand: d, PerMessage: 1, PerValue: 1, Missed: missed}
		allow := func(op Op) bool { return op.Kind == SplitOp || (op.I+op.J)%3 != 0 }
		dirty := func(i int) bool { return i%2 == 0 }

		var filtered, scoped []Candidate
		for _, c := range Rank(sets, ctx) {
			if allow(c.Op) {
				filtered = append(filtered, c)
			}
			if dirty(c.Op.I) || (c.Op.Kind == MergeOp && dirty(c.Op.J)) {
				scoped = append(scoped, c)
			}
		}
		for _, k := range []int{1, 3, 16, 1000} {
			if got, want := Top(sets, ctx, nil, allow, k), filtered[:min(k, len(filtered))]; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d: Top = %v, want %v", trial, k, got, want)
			}
			if got, want := Top(sets, ctx, dirty, nil, k), scoped[:min(k, len(scoped))]; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d scoped: Top = %v, want %v", trial, k, got, want)
			}
		}
	}
}
