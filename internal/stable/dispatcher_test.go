package stable

import (
	"testing"

	"ssrank/internal/rng"
)

// TestDispatcherPrecedence pins the rule order of Protocol 3: a reset
// participant always routes to PropagateReset, two LE agents to
// FastLeaderElection, mixed LE/main to the conversion epidemic, and
// main pairs to Ranking+ — for every combination of modes.
func TestDispatcherPrecedence(t *testing.T) {
	p := New(64, DefaultParams())
	mk := map[string]func() State{
		"ranked": func() State { return Ranked(7) },
		"reset":  func() State { return ResetState(1, 3, p.DMax()) },
		"le":     func() State { return p.LEInitial(1) },
		"wait":   func() State { return WaitState(1, 3, 5) },
		"phase":  func() State { return PhaseState(1, 2, 5) },
	}
	isReset := func(s State) bool { return s.Mode == ModeReset }

	for uName, mu := range mk {
		for vName, mv := range mk {
			u, v := mu(), mv()
			uBefore, vBefore := u, v
			p.Transition(&u, &v)

			switch {
			case isReset(uBefore) || isReset(vBefore):
				// PropagateReset: a computing partner of a propagating
				// agent must have been infected; two non-propagating
				// cases (dormant) just decrement.
				prop := uBefore.IsPropagating() || vBefore.IsPropagating()
				if prop {
					if !isReset(u) || !isReset(v) {
						t.Errorf("(%s, %s): propagating pair left non-reset states %v, %v", uName, vName, u, v)
					}
				}
			case uBefore.Mode == ModeLE && vBefore.Mode == ModeLE:
				// FastLE: the initiator pays budget.
				if u.Mode == ModeLE && u.LECount() != uBefore.LECount()-1 {
					t.Errorf("(%s, %s): initiator did not pay LE budget", uName, vName)
				}
			case uBefore.Mode == ModeLE && vBefore.IsMain():
				if u.Mode != ModePhase || u.Phase() != 1 {
					t.Errorf("(%s, %s): LE initiator not converted: %v", uName, vName, u)
				}
			case vBefore.Mode == ModeLE && uBefore.IsMain():
				if v.Mode != ModePhase || v.Phase() != 1 {
					t.Errorf("(%s, %s): LE responder not converted: %v", uName, vName, v)
				}
			}

			// Universal rule (Protocol 3 line 9): the responder's coin
			// toggles whenever it still has one and kept its mode-class
			// (conversions and resets set their own coin).
			if v.Mode == vBefore.Mode && v.HasCoin() && vBefore.HasCoin() &&
				v.Mode != ModePhase && v.Mode != ModeWait {
				if v.Coin() != vBefore.Coin()^1 {
					t.Errorf("(%s, %s): responder coin not toggled (%d -> %d)", uName, vName, vBefore.Coin(), v.Coin())
				}
			}
		}
	}
}

// TestCoinToggleExactness pins the coin rule precisely on interactions
// that change nothing else.
func TestCoinToggleExactness(t *testing.T) {
	p := New(64, DefaultParams())

	// Ranked responder: no coin, nothing to toggle.
	u, v := Ranked(1), Ranked(2)
	p.Transition(&u, &v)
	if v != Ranked(2) {
		t.Fatalf("ranked responder changed: %v", v)
	}

	// Phase responder of an inert ranked initiator (not leader, not
	// top-ranked, coin 1 so no refresh either): only the coin moves.
	u = Ranked(30)
	v = PhaseState(1, 2, 5)
	p.Transition(&u, &v)
	want := PhaseState(0, 2, 5)
	if v != want {
		t.Fatalf("phase responder = %v, want only the coin toggled (%v)", v, want)
	}

	// Same but coin 0: the initiator is not productive, so no refresh,
	// and the coin toggles to 1.
	v = PhaseState(0, 2, 5)
	p.Transition(&u, &v)
	want = PhaseState(1, 2, 5)
	if v != want {
		t.Fatalf("phase responder = %v, want %v", v, want)
	}
}

// TestTransitionTotality drives the dispatcher over random state pairs
// drawn from the full space and checks it never panics and never
// leaves the declared state space — the totality property the model
// checker proves exhaustively for n = 2, here probed at n = 97.
func TestTransitionTotality(t *testing.T) {
	const n = 97
	p := New(n, DefaultParams())
	r := rng.New(123)
	for i := 0; i < 100000; i++ {
		u, v := p.RandomState(r), p.RandomState(r)
		p.Transition(&u, &v)
		pair := []State{u, v}
		if err := p.CheckInvariant(pair); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}
