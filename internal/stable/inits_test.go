package stable

import (
	"testing"

	"ssrank/internal/sim"
)

func TestWorstCaseInitShape(t *testing.T) {
	p := New(256, DefaultParams())
	states := p.WorstCaseInit()
	if len(states) != 256 {
		t.Fatalf("got %d states", len(states))
	}
	seen := make(map[int32]bool)
	phaseAgents := 0
	for _, s := range states {
		switch s.Mode {
		case ModeRanked:
			if s.Rank() < 2 || s.Rank() > 256 || seen[s.Rank()] {
				t.Fatalf("bad rank %d", s.Rank())
			}
			seen[s.Rank()] = true
		case ModePhase:
			phaseAgents++
			if int32(s.Phase()) != p.Phases().KMax() || s.Alive() != p.LMax() {
				t.Fatalf("phase agent = %+v, want (kMax, LMax)", s)
			}
		default:
			t.Fatalf("unexpected mode %v", s.Mode)
		}
	}
	if phaseAgents != 1 || len(seen) != 255 {
		t.Fatalf("phaseAgents=%d ranked=%d", phaseAgents, len(seen))
	}
	if err := p.CheckInvariant(states); err != nil {
		t.Fatal(err)
	}
}

func TestWorstCaseInitIsDeadUntilReset(t *testing.T) {
	// No productive pair exists: the number of ranked agents must not
	// change until a reset occurs (the only escape is alive expiry).
	const n = 64
	p := New(n, DefaultParams())
	r := sim.New[State](p, p.WorstCaseInit(), 2)
	for p.Resets() == 0 {
		r.Run(int64(n))
		if c := RankedCount(r.States()); c != n-1 && p.Resets() == 0 {
			t.Fatalf("ranked count changed to %d before any reset", c)
		}
		if r.Steps() > stabilizationBudget(n, 3000) {
			t.Fatal("no reset within budget")
		}
	}
	if p.ResetsFor(ReasonAliveExpired) == 0 {
		t.Fatalf("worst-case escape was not alive-expired: %v", p.ResetBreakdown())
	}
}

func TestDuplicateRanksInitDetectedByMeeting(t *testing.T) {
	const n = 64
	p := New(n, DefaultParams())
	r := sim.New[State](p, p.DuplicateRanksInit(), 3)
	for p.Resets() == 0 {
		r.Run(int64(n))
		if r.Steps() > stabilizationBudget(n, 3000) {
			t.Fatal("duplicate ranks never detected")
		}
	}
	if p.ResetsFor(ReasonDuplicateRank) == 0 {
		t.Fatalf("first reset not duplicate-rank: %v", p.ResetBreakdown())
	}
	mustStabilize(t, p, r.States(), 4, 3000)
}

func TestManyUnrankedInitResets(t *testing.T) {
	const n = 64
	for _, k := range []int{2, 8, 32} {
		p := New(n, DefaultParams())
		states := p.ManyUnrankedInit(k)
		if err := p.CheckInvariant(states); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		unranked := n - RankedCount(states)
		if unranked != k {
			t.Fatalf("k=%d: %d unranked agents", k, unranked)
		}
		mustStabilize(t, p, states, uint64(k), 3000)
	}
}

func TestManyUnrankedInitClamps(t *testing.T) {
	p := New(8, DefaultParams())
	if got := 8 - RankedCount(p.ManyUnrankedInit(0)); got != 2 {
		t.Fatalf("k=0 clamped to %d unranked, want 2", got)
	}
	if got := 8 - RankedCount(p.ManyUnrankedInit(100)); got != 7 {
		t.Fatalf("k=100 clamped to %d unranked, want 7", got)
	}
}

func TestFig3InitShape(t *testing.T) {
	p := New(128, DefaultParams())
	states := p.Fig3Init()
	if states[0] != Ranked(1) {
		t.Fatalf("agent 0 = %+v, want rank(1)", states[0])
	}
	for i := 1; i < 128; i++ {
		if states[i].Mode != ModeLE {
			t.Fatalf("agent %d = %+v, want LE", i, states[i])
		}
	}
	mustStabilize(t, p, states, 5, 3000)
}

func TestSingleUnrankedAliasesWorstCase(t *testing.T) {
	p := New(32, DefaultParams())
	a, b := p.SingleUnrankedInit(), p.WorstCaseInit()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("agent %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
