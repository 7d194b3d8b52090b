package chaos

import (
	"fmt"
	"testing"

	"remo/internal/cost"
	"remo/internal/model"
)

// regionSys labels nodes 1-2 as r0, 3-4 as r1, 5-6 as r2 with the
// collector in r0.
func regionSys(t *testing.T) *model.System {
	t.Helper()
	var nodes []model.Node
	for i := 1; i <= 6; i++ {
		nodes = append(nodes, model.Node{ID: model.NodeID(i), Capacity: 10, Region: fmt.Sprintf("r%d", (i-1)/2)})
	}
	sys, err := model.NewSystem(100, cost.Default(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	sys.CentralRegion = "r0"
	return sys
}

func TestRegionPartitionDrop(t *testing.T) {
	c := (&Config{RegionPartitions: map[string][]Window{"r1": {{From: 5, To: 10}}}}).ForSystem(regionSys(t))
	cases := []struct {
		name     string
		from, to model.NodeID
		round    int
		drop     bool
	}{
		{"cross into partitioned region", 1, 3, 5, true},
		{"cross out of partitioned region", 3, 1, 7, true},
		{"heartbeat to central", 4, model.Central, 9, true},
		{"inside partitioned region", 3, 4, 7, false},
		{"unaffected regions", 1, 5, 7, false},
		{"before window", 1, 3, 4, false},
		{"after window", 1, 3, 10, false},
	}
	for _, tc := range cases {
		if got := c.Drop(tc.from, tc.to, tc.round, 0); got != tc.drop {
			t.Errorf("%s: Drop(%v->%v, round %d) = %v, want %v",
				tc.name, tc.from, tc.to, tc.round, got, tc.drop)
		}
	}
}

func TestLinkFlapDrop(t *testing.T) {
	// Key deliberately built in reversed order: NormLink must make
	// orientation irrelevant.
	c := (&Config{LinkFlaps: map[RegionLink][]Window{NormLink("r1", "r0"): {{From: 3, To: 6}}}}).ForSystem(regionSys(t))
	if !c.Drop(1, 3, 4, 0) || !c.Drop(3, 1, 4, 0) {
		t.Fatal("flapped link should drop both directions")
	}
	if !c.Drop(3, model.Central, 4, 0) {
		t.Fatal("flap must also cut r1's path to the r0 collector")
	}
	if c.Drop(1, 5, 4, 0) {
		t.Fatal("other links must survive a flap")
	}
	if c.Drop(3, 4, 4, 0) {
		t.Fatal("intra-region traffic must survive a flap")
	}
	if c.Drop(1, 3, 6, 0) {
		t.Fatal("link must recover when the window closes")
	}
}

func TestRegionScheduleNilSafe(t *testing.T) {
	var c *Config
	if c.regionOf(1) != "" || c.RegionPartitioned("r0", 1) || c.LinkFlapped("a", "b", 1) {
		t.Fatal("nil config must inject nothing")
	}
	if c.Drop(1, 2, 0, 0) {
		t.Fatal("nil config must not drop")
	}
}

// TestLabelRegions checks ForSystem labels a copy from the system it is
// given and leaves the caller's config as it was, so one config labels
// differently for differently labeled systems.
func TestLabelRegions(t *testing.T) {
	sys, err := model.NewSystem(100, cost.Default(), []model.Node{
		{ID: 1, Capacity: 10, Region: "east"},
		{ID: 2, Capacity: 10, Region: "west"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.CentralRegion = "east"
	c := &Config{RegionPartitions: map[string][]Window{"west": {{From: 0, To: 5}}}}
	east := c.ForSystem(sys)
	if east.regionOf(2) != "west" || east.regionOf(model.Central) != "east" {
		t.Fatalf("labels not copied: %+v central=%q", east.regions, east.centralRegion)
	}
	if c.regions != nil || c.centralRegion != "" {
		t.Fatal("ForSystem wrote into the caller's config")
	}
	sys.Nodes[1].Region = "east"
	sys.CentralRegion = "west"
	if west := c.ForSystem(sys); west.regionOf(2) != "east" || !west.Drop(2, model.Central, 1, 0) {
		t.Fatal("a second system's labels did not replace the first's")
	}
}

func TestRollingUpgrade(t *testing.T) {
	members := []model.NodeID{5, 1, 3, 2, 4} // unsorted on purpose
	ws := RollingUpgrade(members, 0.4, 10, 3)
	if len(ws) != len(members) {
		t.Fatalf("schedule covers %d nodes, want %d", len(ws), len(members))
	}
	c := &Config{CrashWindows: ws}
	// Every member goes down exactly once, and never more than
	// ceil(0.4*5)=2 at a time.
	downRounds := make(map[model.NodeID]int)
	for round := 0; round < 30; round++ {
		down := 0
		for _, n := range members {
			if c.Crashed(n, round) {
				down++
				downRounds[n]++
			}
		}
		if down > 2 {
			t.Fatalf("round %d has %d nodes down, want <= 2", round, down)
		}
	}
	for _, n := range members {
		if downRounds[n] != 3 {
			t.Fatalf("node %v down for %d rounds, want 3", n, downRounds[n])
		}
	}
	// Waves are consecutive and non-overlapping: ids 1,2 then 3,4 then 5.
	if ws[1][0] != (Window{From: 10, To: 13}) || ws[3][0] != (Window{From: 13, To: 16}) ||
		ws[5][0] != (Window{From: 16, To: 19}) {
		t.Fatalf("unexpected wave layout: %v", ws)
	}
	// Deterministic: same inputs, same schedule.
	again := RollingUpgrade(members, 0.4, 10, 3)
	for n, w := range ws {
		if len(again[n]) != 1 || again[n][0] != w[0] {
			t.Fatalf("nondeterministic schedule for %v: %v vs %v", n, w, again[n])
		}
	}
	// Degenerate inputs yield no schedule.
	if RollingUpgrade(nil, 0.5, 1, 1) != nil || RollingUpgrade(members, 0, 1, 1) != nil ||
		RollingUpgrade(members, 0.5, 1, 0) != nil {
		t.Fatal("degenerate inputs should return nil")
	}
}

// TestRegionScheduleDeterministic extends the replay promise to the
// region-scoped rules: pure window membership, identical on every
// evaluation, independent of probabilistic seeds.
func TestRegionScheduleDeterministic(t *testing.T) {
	mk := func(seed uint64) *Config {
		return (&Config{
			Seed:             seed,
			RegionPartitions: map[string][]Window{"r2": {{From: 2, To: 4}}},
			LinkFlaps:        map[RegionLink][]Window{NormLink("r0", "r1"): {{From: 6, To: 8}}},
		}).ForSystem(regionSys(t))
	}
	if scheduleHash(mk(1)) != scheduleHash(mk(1)) {
		t.Fatal("identical region configs produced different schedules")
	}
	// Region windows are seed-independent by design.
	if scheduleHash(mk(1)) != scheduleHash(mk(2)) {
		t.Fatal("region windows must not depend on the probabilistic seed")
	}
}
