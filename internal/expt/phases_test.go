package expt

import (
	"testing"

	"ssrank/internal/core"
)

func TestTrackWindowsAlternation(t *testing.T) {
	const n = 128
	windows, ok := trackWindows(QuickOptions(), n, 3)
	if !ok {
		t.Skip("run did not converge for this seed (w.h.p. caveat)")
	}
	if len(windows) < 2 {
		t.Fatalf("only %d windows", len(windows))
	}
	// Windows alternate waiting, ranking, waiting, ... and phases are
	// 1, 1, 2, 2, 3, 3, ...
	for i, w := range windows {
		wantKind := windowWaiting
		if i%2 == 1 {
			wantKind = windowRanking
		}
		if w.kind != wantKind {
			t.Fatalf("window %d kind = %v, want %v", i, w.kind, wantKind)
		}
		if wantPhase := int32(i/2 + 1); w.phase != wantPhase {
			t.Fatalf("window %d phase = %d, want %d", i, w.phase, wantPhase)
		}
		if w.duration() < 0 {
			t.Fatalf("window %d has negative duration", i)
		}
		if i > 0 && w.start != windows[i-1].end {
			t.Fatalf("window %d not contiguous: start %d, previous end %d", i, w.start, windows[i-1].end)
		}
	}
	// A clean run has exactly kMax waiting windows and kMax ranking
	// windows (the final phase's ranking window ends at validity).
	kMax := int(core.NewPhases(n).KMax())
	if len(windows) != 2*kMax {
		t.Fatalf("got %d windows, want %d (2·kMax)", len(windows), 2*kMax)
	}
}

func TestWaitingWindowsGrowGeometrically(t *testing.T) {
	// Lemma 6: the phase-k waiting window scales like 2^k·n·log n. The
	// last window must dwarf the first.
	const n = 256
	windows, ok := trackWindows(QuickOptions(), n, 9)
	if !ok {
		t.Skip("run did not converge for this seed")
	}
	var first, last int64 = -1, -1
	for _, w := range windows {
		if w.kind != windowWaiting {
			continue
		}
		if first < 0 {
			first = w.duration()
		}
		last = w.duration()
	}
	if first <= 0 || last <= 0 {
		t.Fatal("missing waiting windows")
	}
	if last < 8*first {
		t.Fatalf("waiting windows did not grow: first %d, last %d", first, last)
	}
}

func TestWindowKindString(t *testing.T) {
	if windowWaiting.String() != "waiting" || windowRanking.String() != "ranking" {
		t.Fatal("windowKind strings wrong")
	}
}
