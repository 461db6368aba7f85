package expt

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure CSVs under testdata/")

// TestGoldenFigureCSV pins every experiment's quick-scale CSV at the
// default seed as a golden file, plus sharded counterparts of the
// generators whose sharded output is pinned on its own: any engine,
// seed-derivation, budget, or migration change that perturbs
// experiment output fails tier-1 tests here instead of silently
// shifting published numbers. The serial pins are driven by the
// experiment index, so a new experiment cannot go unpinned. After an
// *intentional* output change, regenerate with
//
//	go test ./internal/expt/ -run TestGoldenFigureCSV -update
//
// and review the CSV diff like code.
func TestGoldenFigureCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	shards4 := func(gen func(Options) Figure) func(Options) Figure {
		return func(o Options) Figure {
			o.Shards = 4
			return gen(o)
		}
	}
	type pin struct {
		golden string
		gen    func(Options) Figure
	}
	var pins []pin
	for _, x := range Registry {
		pins = append(pins, pin{strings.ToLower(x.ID) + "_quick.golden.csv", x.Gen})
	}
	pins = append(pins,
		// E2 is the largest-n quick CSV that runs through
		// internal/sim/shard (the Fig. 3 scaling sweep): any change to
		// batch classification, shard-stream derivation, or cross
		// reconciliation order fails here.
		pin{"e2_quick_shards4.golden.csv", shards4(Figure3)},
		// E6 pins the sharded exact stop across three protocols'
		// trackers.
		pin{"e6_quick_shards4.golden.csv", shards4(BaselineComparison)},
		// E18 pins Loose's transient exact stop followed by Run probes
		// on the same sharded engine.
		pin{"e18_quick_shards4.golden.csv", shards4(LooseVsSilent)},
	)
	for _, tc := range pins {
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			got := tc.gen(QuickOptions()).CSV()
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s: CSV drifted from the golden file.\n--- want\n%s\n--- got\n%s\nIf the change is intentional, regenerate with -update and review the diff.",
					tc.golden, want, got)
			}
		})
	}
}
