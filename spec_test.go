package remo_test

import (
	"strings"
	"testing"

	"remo"
)

func TestSpecNodesInheritTaskAttrs(t *testing.T) {
	const doc = `{
		"centralCapacity": 300,
		"perMessage": 10, "perValue": 1,
		"nodes": [{"id": 1, "capacity": 80}, {"id": 2, "capacity": 80}],
		"tasks": [{"name": "t", "attrs": [3, 7], "nodes": [1, 2]}]
	}`
	spec, err := remo.LoadSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes observe both referenced attributes.
	if plan.DemandedPairs() != 4 {
		t.Fatalf("demanded = %d, want 4", plan.DemandedPairs())
	}
}

func TestSpecReplicatedTask(t *testing.T) {
	const doc = `{
		"centralCapacity": 400,
		"perMessage": 10, "perValue": 1,
		"nodes": [
			{"id": 1, "capacity": 100}, {"id": 2, "capacity": 100},
			{"id": 3, "capacity": 100}, {"id": 4, "capacity": 100}
		],
		"tasks": [{"name": "crit", "attrs": [1], "nodes": [1, 2, 3, 4], "replicas": 2}]
	}`
	spec, err := remo.LoadSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Trees()) < 2 {
		t.Fatalf("replicated spec produced %d trees, want >= 2", len(plan.Trees()))
	}
}

func TestSpecRegionTopology(t *testing.T) {
	const doc = `{
		"centralCapacity": 400,
		"perMessage": 10, "perValue": 1,
		"centralRegion": "east",
		"interRegionCost": 6,
		"regionLinks": [{"a": "east", "b": "west", "cost": 3}],
		"nodes": [
			{"id": 1, "capacity": 100, "region": "east"},
			{"id": 2, "capacity": 100, "region": "west"},
			{"id": 3, "capacity": 100, "region": "apac"}
		],
		"tasks": [{"name": "t", "attrs": [1], "nodes": [1, 2, 3]}]
	}`
	spec, err := remo.LoadSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.RegionLinks) != 1 || spec.RegionLinks[0].B != "west" {
		t.Fatalf("region links decoded as %+v", spec.RegionLinks)
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := p.System()
	if sys.CentralRegion != "east" {
		t.Fatalf("CentralRegion = %q, want east", sys.CentralRegion)
	}
	if got := sys.Dist(1, 1); got != 1 {
		t.Fatalf("intra Dist = %v, want 1", got)
	}
	if got := sys.Dist(2, 3); got != 6 {
		t.Fatalf("inter Dist = %v, want 6", got)
	}
	// The east-west link override also prices node 2's path to the
	// east-homed collector.
	if got := sys.Dist(2, remo.CentralNode); got != 3 {
		t.Fatalf("overridden Dist = %v, want 3", got)
	}
	// Plans built from the spec verify against the topology prices.
	if _, err := p.Plan(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // a substring the error must carry; empty checks nothing
	}{
		{
			name: "duplicate node",
			doc: `{"centralCapacity": 10, "perMessage": 1, "perValue": 1,
				"nodes": [{"id": 1, "capacity": 5}, {"id": 1, "capacity": 5}],
				"tasks": [{"name": "t", "attrs": [1], "nodes": [1]}]}`,
		},
		{
			name: "bad cost model",
			doc: `{"centralCapacity": 10, "perMessage": 0, "perValue": 0,
				"nodes": [{"id": 1, "capacity": 5}],
				"tasks": [{"name": "t", "attrs": [1], "nodes": [1]}]}`,
		},
		{
			name: "nameless task",
			doc: `{"centralCapacity": 10, "perMessage": 1, "perValue": 1,
				"nodes": [{"id": 1, "capacity": 5}],
				"tasks": [{"attrs": [1], "nodes": [1]}]}`,
		},
		{
			name: "undeclared task node",
			doc: `{"centralCapacity": 10, "perMessage": 1, "perValue": 1,
				"nodes": [{"id": 1, "capacity": 5}],
				"tasks": [{"name": "t", "attrs": [1], "nodes": [7]}]}`,
			want: `task "t" names node 7`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := remo.LoadSpec(strings.NewReader(tc.doc))
			if err != nil {
				return // rejected at decode: also fine
			}
			_, err = spec.Build()
			if err == nil {
				t.Fatalf("bad spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to carry %q", err, tc.want)
			}
		})
	}
}
