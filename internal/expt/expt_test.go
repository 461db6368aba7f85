package expt

import (
	"fmt"
	"strings"
	"testing"
)

// TestAllQuickExperimentsProduceData runs every experiment at quick
// scale and checks structural health: rows present, CSV well-formed,
// ASCII non-empty, determinism across runs.
func TestAllQuickExperimentsProduceData(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	for _, x := range Registry {
		f := x.Gen(QuickOptions())
		if f.ID != x.ID {
			t.Fatalf("%s's generator returned figure %s", x.ID, f.ID)
		}
		if len(f.Rows) == 0 {
			t.Errorf("%s: no data rows", f.ID)
		}
		for _, row := range f.Rows {
			if len(row) != len(f.Header) {
				t.Errorf("%s: row width %d != header width %d", f.ID, len(row), len(f.Header))
			}
		}
		if !strings.Contains(f.CSV(), ",") {
			t.Errorf("%s: CSV looks empty", f.ID)
		}
		if f.ASCII == "" {
			t.Errorf("%s: no ASCII rendering", f.ID)
		}
		if f.String() == "" {
			t.Errorf("%s: no String rendering", f.ID)
		}
	}
}

// TestRegistryHasAllExperiments checks that the experiment index
// lists E1, E2, … in order, each with a generator.
func TestRegistryHasAllExperiments(t *testing.T) {
	if len(Registry) != 19 {
		t.Errorf("registry has %d experiments, want 19", len(Registry))
	}
	for i, x := range Registry {
		if want := fmt.Sprintf("E%d", i+1); x.ID != want || x.Gen == nil {
			t.Errorf("registry entry %d = %s (generator set: %t), want %s", i, x.ID, x.Gen != nil, want)
		}
	}
}

func TestFigure2Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	a := Figure2(QuickOptions())
	b := Figure2(QuickOptions())
	if a.CSV() != b.CSV() {
		t.Fatal("Figure2 not deterministic for a fixed seed")
	}
}

func TestFigure2ShowsRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	f := Figure2(QuickOptions())
	// The run must end stabilized and have at least one reset (the
	// worst-case init is dead until the liveness counter fires).
	joined := strings.Join(f.Notes, "\n")
	if strings.Contains(joined, "NOT stabilized") {
		t.Fatalf("figure 2 run did not stabilize: %v", f.Notes)
	}
	if !strings.Contains(joined, "first reset") {
		t.Fatalf("figure 2 run shows no reset: %v", f.Notes)
	}
}

func TestFig3HittingTimesOrdered(t *testing.T) {
	times := fig3HittingTimes(QuickOptions(), 128, 7)
	prev := 0.0
	for i, v := range times {
		if v < 0 {
			t.Fatalf("fraction %d not reached", i)
		}
		if v < prev {
			t.Fatalf("hitting times not monotone: %v", times)
		}
		prev = v
	}
}

func TestOneShotFastLECounts(t *testing.T) {
	// Across seeds the outcome must take values in {0, 1, 2+} and be
	// frequently 1.
	ones, total := 0, 40
	for seed := 0; seed < total; seed++ {
		l := oneShotFastLE(QuickOptions(), 128, uint64(seed))
		if l < 0 {
			t.Fatalf("seed %d: did not decide", seed)
		}
		if l == 1 {
			ones++
		}
	}
	if ones < total/10 {
		t.Fatalf("unique-leader outcomes: %d/%d, implausibly low", ones, total)
	}
}
