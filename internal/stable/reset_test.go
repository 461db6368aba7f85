package stable

import (
	"testing"

	"ssrank/internal/sim"
)

func TestTriggerResetClearsAllButCoin(t *testing.T) {
	p := New(64, DefaultParams())

	s := PhaseState(1, 3, 5)
	p.TriggerReset(&s)
	want := ResetState(1, p.RMax(), p.DMax())
	if s != want {
		t.Fatalf("after trigger: %+v, want %+v", s, want)
	}

	// A ranked agent has no coin; it is initialized to 0.
	s = Ranked(17)
	p.TriggerReset(&s)
	if s.Coin() != 0 || s.Mode() != ModeReset {
		t.Fatalf("ranked agent after trigger: %+v", s)
	}

	if p.Resets() != 2 || p.ResetsFor(ReasonExternal) != 2 {
		t.Fatalf("reset counters: total=%d external=%d", p.Resets(), p.ResetsFor(ReasonExternal))
	}
}

func TestPropagatingInfectsComputing(t *testing.T) {
	p := New(64, DefaultParams())
	prop := ResetState(0, 5, p.DMax())
	comp := PhaseState(1, 2, 3)

	p.Transition(&prop, &comp)
	if prop.ResetCount() != 4 {
		t.Fatalf("propagating agent resetCount = %d, want 4", prop.ResetCount())
	}
	if comp.Mode() != ModeReset || comp.ResetCount() != 4 || comp.DelayCount() != p.DMax() {
		t.Fatalf("computing agent became %+v, want propagating (4, Dmax)", comp)
	}
	// The dispatcher toggles the responder's coin after the subprotocol.
	if comp.Coin() != 0 {
		t.Fatalf("infected agent's coin = %d, want original 1 toggled to 0", comp.Coin())
	}
}

func TestPropagatingInfectsComputingAsResponder(t *testing.T) {
	// The epidemic is role-agnostic.
	p := New(64, DefaultParams())
	comp := Ranked(9)
	prop := ResetState(0, 3, p.DMax())
	p.Transition(&comp, &prop)
	if comp.Mode() != ModeReset || comp.ResetCount() != 2 {
		t.Fatalf("initiator computing agent became %+v, want propagating with 2", comp)
	}
	if prop.ResetCount() != 2 {
		t.Fatalf("responder propagating resetCount = %d, want 2", prop.ResetCount())
	}
}

func TestTwoPropagatingTakeMaxMinusOne(t *testing.T) {
	p := New(64, DefaultParams())
	a := ResetState(0, 7, p.DMax())
	b := ResetState(0, 3, p.DMax())
	p.Transition(&a, &b)
	if a.ResetCount() != 6 || b.ResetCount() != 6 {
		t.Fatalf("resetCounts = (%d, %d), want (6, 6)", a.ResetCount(), b.ResetCount())
	}
}

func TestPropagatingMeetsDormant(t *testing.T) {
	p := New(64, DefaultParams())
	prop := ResetState(0, 2, p.DMax())
	dorm := ResetState(0, 0, 5)
	p.Transition(&prop, &dorm)
	if prop.ResetCount() != 1 {
		t.Fatalf("propagating resetCount = %d, want 1", prop.ResetCount())
	}
	if dorm.DelayCount() != 4 {
		t.Fatalf("dormant delayCount = %d, want 4", dorm.DelayCount())
	}
}

func TestDormantDecrementsAgainstAnyone(t *testing.T) {
	p := New(64, DefaultParams())
	dorm := ResetState(0, 0, 3)
	other := Ranked(5)
	p.Transition(&dorm, &other)
	if dorm.DelayCount() != 2 {
		t.Fatalf("delayCount = %d, want 2", dorm.DelayCount())
	}
	if other != Ranked(5) {
		t.Fatalf("computing partner changed: %+v", other)
	}

	// Two dormant agents both decrement.
	a := ResetState(0, 0, 3)
	b := ResetState(1, 0, 2)
	p.Transition(&a, &b)
	if a.DelayCount() != 2 || b.DelayCount() != 1 {
		t.Fatalf("delayCounts = (%d, %d), want (2, 1)", a.DelayCount(), b.DelayCount())
	}
}

func TestDormantAwakensIntoLeaderElection(t *testing.T) {
	p := New(64, DefaultParams())
	dorm := ResetState(1, 0, 1)
	other := Ranked(5)
	p.Transition(&dorm, &other)
	want := p.LEInitial(1)
	if dorm != want {
		t.Fatalf("awakened agent = %+v, want %+v", dorm, want)
	}
}

func TestExpiredPropagatorBecomesDormantNotAwake(t *testing.T) {
	p := New(64, DefaultParams())
	a := ResetState(0, 1, p.DMax())
	b := ResetState(0, 1, p.DMax())
	p.Transition(&a, &b)
	if !a.IsDormant() || !b.IsDormant() {
		t.Fatalf("agents after max-1 from (1,1): %+v, %+v — want dormant", a, b)
	}
}

func TestResetWaveCoversPopulation(t *testing.T) {
	// A single triggered agent must drive the entire population through
	// dormancy and back into leader election (Lemma 9: O(n log n)
	// interactions to C_LE).
	const n = 256
	p := New(n, DefaultParams())
	states := make([]State, n)
	for i := 0; i < n; i++ {
		states[i] = Ranked(int32(i + 1))
	}
	p.TriggerReset(&states[0])
	r := sim.New[State](p, states, 3)

	noMain := func(_ int64, ss []State) bool {
		for i := range ss {
			if ss[i].IsMain() {
				return false
			}
		}
		return true
	}
	steps, err := sim.Poll(r, 0, int64(100*n*17), noMain)
	if err != nil {
		left := 0
		for _, s := range r.States() {
			if s.IsMain() {
				left++
			}
		}
		t.Fatalf("reset wave left %d main agents after %d steps", left, steps)
	}
}

func TestResetCountNeverExceedsRMax(t *testing.T) {
	const n = 64
	p := New(n, DefaultParams())
	states := p.InitialStates()
	p.TriggerReset(&states[0])
	p.TriggerReset(&states[1])
	r := sim.New[State](p, states, 9)
	for i := 0; i < 200; i++ {
		r.Run(int64(n))
		if err := p.CheckInvariant(r.States()); err != nil {
			t.Fatalf("after %d steps: %v", r.Steps(), err)
		}
	}
}
