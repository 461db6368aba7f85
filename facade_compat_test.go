package ssrank

// This file pins the facade's Results across every protocol × init ×
// in-place engine combination, budget-exhausted runs and
// message-network runs (facadeCases), against the golden file
// testdata/facade_results.golden.json: one canonical JSON Result per
// subtest, every field included (ranks, hitting time,
// exactness, leader, resets and their breakdown, resolved shard count
// and the normalized Config). Regenerate with
//
//	go test -run TestFacadeCompat -update .
//
// only for an intentional trajectory change, and say why in the commit.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const facadeGolden = "testdata/facade_results.golden.json"

func TestFacadeCompat(t *testing.T) {
	want := map[string]json.RawMessage{}
	if !*update {
		data, err := os.ReadFile(facadeGolden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", facadeGolden, err)
		}
	}
	got := map[string][]byte{}
	for _, c := range facadeCases() {
		t.Run(c.name, func(t *testing.T) {
			// A run that misses its budget is pinned too: its Result
			// says Converged=false.
			res, _ := Run(c.cfg)
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			got[c.name] = b
			if *update {
				return
			}
			var w bytes.Buffer
			if err := json.Compact(&w, want[c.name]); err != nil || !bytes.Equal(b, w.Bytes()) {
				t.Fatalf("Result drifted from %s:\ngot  %s\nwant %s", facadeGolden, b, want[c.name])
			}
		})
	}
	if *update {
		var out bytes.Buffer
		out.WriteString("{\n")
		for i, name := range slices.Sorted(maps.Keys(got)) {
			if i > 0 {
				out.WriteString(",\n")
			}
			fmt.Fprintf(&out, "%q: %s", name, got[name])
		}
		out.WriteString("\n}\n")
		if err := os.WriteFile(facadeGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

type facadeCase struct {
	name string
	cfg  Config
}

// facadeCases lists the pinned Run configurations: every protocol ×
// init on both in-place engines (Loose included), one budget-exhausted
// run per in-place engine, and message-network runs under the uniform
// scheduler, a mixed fault regime and a starved regime that ends on the
// round backstop.
func facadeCases() []facadeCase {
	combos := []struct {
		p    Protocol
		init Init
	}{
		{StableRanking, InitFresh},
		{StableRanking, InitWorstCase},
		{StableRanking, InitRandom},
		{StableRanking, InitFig3},
		{SpaceEfficient, InitFresh},
		{Cai, InitFresh},
		{Cai, InitRandom},
		{Aware, InitFresh},
		{Interval, InitFresh},
		{Loose, InitFresh},
		{Loose, InitWorstCase},
	}
	engine := func(shards int) string {
		if shards > 0 {
			return fmt.Sprintf("shards=%d", shards)
		}
		return "serial"
	}
	const n = 48
	var cases []facadeCase
	for _, c := range combos {
		for _, seed := range []uint64{1, 5} {
			for _, shards := range []int{0, 4} {
				cases = append(cases, facadeCase{
					fmt.Sprintf("%s/%s/%s/seed=%d", c.p, c.init, engine(shards), seed),
					Config{N: n, Protocol: c.p, Init: c.init, Seed: seed, Shards: shards},
				})
			}
		}
	}
	for _, shards := range []int{0, 4} {
		cases = append(cases, facadeCase{
			fmt.Sprintf("budget/stable/worst-case/%s/seed=1", engine(shards)),
			Config{N: n, Init: InitWorstCase, Seed: 1, Shards: shards, MaxInteractions: 5000},
		})
	}
	return append(cases,
		facadeCase{"msgnet/uniform/seed=1", Config{N: n, Seed: 1, Scheduler: SchedulerUniform}},
		facadeCase{"msgnet/faults/seed=1", Config{N: 16, Seed: 1,
			Faults: Faults{DropProb: 0.1, DupProb: 0.05, DelayMax: 2, ReorderProb: 0.2}}},
		facadeCase{"msgnet/drop=0.97/budget/seed=1", Config{N: n, Seed: 1,
			Faults: Faults{DropProb: 0.97}, MaxInteractions: 2000}},
	)
}
