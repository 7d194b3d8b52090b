package adapt

import (
	"math/rand"
	"testing"

	"remo/internal/model"
	"remo/internal/repair"
	"remo/internal/task"
)

// rewireAround repairs a's forest around the dead nodes and commits the
// repair the way a live session does.
func rewireAround(t *testing.T, a *Adaptor, dead ...model.NodeID) {
	t.Helper()
	set := make(map[model.NodeID]struct{}, len(dead))
	for _, n := range dead {
		set[n] = struct{}{}
	}
	healed, rep := repair.Repair(repair.Config{Sys: a.sys, Demand: a.Demand(), Spec: a.planner.Spec()}, a.Forest(), set)
	if rep.FailedMembers == 0 {
		t.Fatalf("nodes %v place nothing in the forest: the repair is a no-op", dead)
	}
	pruned, _ := repair.Prune(a.Demand(), set)
	a.Rewire(pruned, healed)
}

// placed returns the forest's members in ID order.
func placed(a *Adaptor) []model.NodeID {
	seen := make(map[model.NodeID]struct{})
	var out []model.NodeID
	for _, tr := range a.Forest().Trees {
		for _, n := range tr.Members() {
			if _, ok := seen[n]; !ok {
				seen[n] = struct{}{}
				out = append(out, n)
			}
		}
	}
	model.SortNodes(out)
	return out
}

func prune(d *task.Demand, dead ...model.NodeID) *task.Demand {
	set := make(map[model.NodeID]struct{}, len(dead))
	for _, n := range dead {
		set[n] = struct{}{}
	}
	out, _ := repair.Prune(d, set)
	return out
}

// TestRecoveryRestoresAsidePlan: a Rewire sets the searched plan aside,
// and a Propose back to the pre-repair demand restores it — zero
// evaluations, the pre-repair forest's fingerprint. A second failure
// keeps the older plan aside, so recovering both nodes at once restores
// it too.
func TestRecoveryRestoresAsidePlan(t *testing.T) {
	sys, d, _ := churnEnv(t, rand.New(rand.NewSource(3)), 40, 5)
	a := newAdaptor(Incremental, sys)
	a.Init(d)
	before := a.Forest().Fingerprint()
	members := placed(a)

	rewireAround(t, a, members[0])
	if a.Forest().Fingerprint() == before {
		t.Fatal("the repair left the forest unchanged")
	}
	rep := a.Apply(d)
	if rep.Replan.Evaluations != 0 {
		t.Fatalf("recovery evaluated %d candidates, want 0 (restored)", rep.Replan.Evaluations)
	}
	if got := a.Forest().Fingerprint(); got != before {
		t.Fatalf("recovered forest %#x, pre-repair forest %#x", got, before)
	}
	if err := a.Forest().Validate(d, sys, nil); err != nil {
		t.Fatal(err)
	}

	// Two failures, one recovery of both: the first failure's plan is
	// the one restored.
	rewireAround(t, a, members[0])
	rewireAround(t, a, members[1])
	rep = a.Apply(d)
	if rep.Replan.Evaluations != 0 || a.Forest().Fingerprint() != before {
		t.Fatalf("double recovery: %d evaluations, forest %#x, want 0 and %#x",
			rep.Replan.Evaluations, a.Forest().Fingerprint(), before)
	}
}

// TestOtherProposalDropsAsidePlan: a proposal for any other demand
// without a carry target (a partial recovery of a multi-node outage)
// drops the set-aside plan, so the later full recovery searches.
func TestOtherProposalDropsAsidePlan(t *testing.T) {
	sys, d, _ := churnEnv(t, rand.New(rand.NewSource(3)), 40, 5)
	a := newAdaptor(Incremental, sys)
	a.Init(d)
	members := placed(a)
	rewireAround(t, a, members[0], members[1])
	if rep := a.Apply(prune(d, members[1])); rep.Replan.Evaluations == 0 {
		t.Fatal("a partial recovery restored a plan for another demand")
	}
	if rep := a.Apply(d); rep.Replan.Evaluations == 0 {
		t.Fatal("the set-aside plan survived a proposal for another demand")
	}
}

// TestSetTasksCarriesAsidePlan: a task change committed during an
// outage carries the set-aside plan forward to the new task set, so the
// recovery restores exactly the plan a never-failed adaptor holds after
// the same task changes.
func TestSetTasksCarriesAsidePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys, d0, d1 := churnEnv(t, rng, 40, 5)
	_, _, d2 := churnEnv(t, rng, 40, 5)

	ref := newAdaptor(Incremental, sys)
	ref.Init(d0)
	ref.Apply(d1)
	ref.Apply(d2)
	want := ref.Forest().Fingerprint()

	a := newAdaptor(Incremental, sys)
	a.Init(d0)
	a.Apply(d1)
	dead := placed(a)[0]
	rewireAround(t, a, dead)
	a.Commit(a.Propose(prune(d2, dead), d2))
	if err := a.Forest().Validate(prune(d2, dead), sys, nil); err != nil {
		t.Fatalf("outage plan: %v", err)
	}
	rep := a.Apply(d2)
	if rep.Replan.Evaluations != 0 {
		t.Fatalf("recovery evaluated %d candidates, want 0 (restored)", rep.Replan.Evaluations)
	}
	if got := a.Forest().Fingerprint(); got != want {
		t.Fatalf("recovered forest %#x, carried-forward plan %#x", got, want)
	}
	if err := a.Forest().Validate(d2, sys, nil); err != nil {
		t.Fatal(err)
	}
}
