package expt

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure CSVs under testdata/")

// TestGoldenFigureCSV pins the E1 and E6 quick-scale CSVs at the
// default seed as golden files: any engine, seed-derivation, budget,
// or migration change that perturbs experiment output fails tier-1
// tests here instead of silently shifting published numbers. After an
// *intentional* output change, regenerate with
//
//	go test ./internal/expt/ -run TestGoldenFigureCSV -update
//
// and review the CSV diff like code. E1 is the single pinned
// worst-case trajectory (seeded directly by Options.Seed), E6 a
// multi-protocol replication sweep with pilot-derived budgets —
// between them they cover both seeding paths and the adaptive-budget
// derivation.
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
	for _, tc := range []struct {
		golden string
		gen    func(Options) Figure
	}{
		{"e1_quick.golden.csv", Figure2},
		{"e6_quick.golden.csv", BaselineComparison},
		// The sharded counterpart pins the largest-n quick CSV that
		// runs through internal/sim/shard (E2, the Fig. 3 scaling
		// sweep): any change to batch classification, shard-stream
		// derivation, or cross reconciliation order fails here instead
		// of silently shifting sharded experiment output.
		{"e2_quick_shards4.golden.csv", shards4(Figure3)},
		// E6 sharded pins descStabilize's sharded exact stop across
		// three protocols' trackers.
		{"e6_quick_shards4.golden.csv", shards4(BaselineComparison)},
		// E18 pins Loose's transient exact stop followed by Run
		// probes on the same engine, serial and sharded.
		{"e18_quick.golden.csv", LooseVsSilent},
		{"e18_quick_shards4.golden.csv", shards4(LooseVsSilent)},
		// The message-network counterpart pins the E19 fault-regime
		// grid: any change to the msgnet round structure, fault-fate
		// stream, scheduler graphs, or rendezvous bookkeeping shifts
		// rounds/steps and fails here instead of silently rewriting
		// the fault-tolerance findings.
		{"e19_quick.golden.csv", MsgNetFaultRegimes},
	} {
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
