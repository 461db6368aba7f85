package ssrank

// This file pins the facade's Results across every protocol × init ×
// engine combination the pre-descriptor facade supported, against the
// golden file testdata/facade_results.golden.json: one canonical JSON
// Result per subtest, every field included (ranks, hitting time,
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

var update = flag.Bool("update", false, "rewrite testdata/facade_results.golden.json")

const facadeGolden = "testdata/facade_results.golden.json"

func TestFacadeCompat(t *testing.T) {
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
	}
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
	const n = 48
	for _, c := range combos {
		for _, seed := range []uint64{1, 5} {
			for _, shards := range []int{0, 4} {
				engine := "serial"
				if shards > 0 {
					engine = fmt.Sprintf("shards=%d", shards)
				}
				name := fmt.Sprintf("%s/%s/%s/seed=%d", c.p, c.init, engine, seed)
				t.Run(name, func(t *testing.T) {
					// A run that misses its budget is pinned too: its
					// Result says Converged=false.
					res, _ := Run(Config{N: n, Protocol: c.p, Init: c.init, Seed: seed, Shards: shards})
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					got[name] = b
					if *update {
						return
					}
					var w bytes.Buffer
					if err := json.Compact(&w, want[name]); err != nil || !bytes.Equal(b, w.Bytes()) {
						t.Fatalf("Result drifted from %s:\ngot  %s\nwant %s", facadeGolden, b, want[name])
					}
				})
			}
		}
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
