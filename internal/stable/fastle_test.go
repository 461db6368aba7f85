package stable

import (
	"testing"

	"ssrank/internal/sim"
)

func TestFastLETailMakesNonLeader(t *testing.T) {
	p := New(256, DefaultParams())
	u := p.LEInitial(0)
	v := p.LEInitial(0) // coin 0: a tail
	p.Transition(&u, &v)
	if !u.LeaderDone() || u.IsLeader() {
		t.Fatalf("after a tail: done=%t leader=%t, want done non-leader", u.LeaderDone(), u.IsLeader())
	}
	if u.LECount() != p.LEBudget()-1 {
		t.Fatalf("LECount = %d, want %d", u.LECount(), p.LEBudget()-1)
	}
	// Responder's coin toggled by the dispatcher.
	if v.Coin() != 1 {
		t.Fatalf("responder coin = %d, want toggled to 1", v.Coin())
	}
}

func TestFastLEConsecutiveHeadsElectAndTransition(t *testing.T) {
	p := New(256, DefaultParams())
	u := p.LEInitial(0)
	need := int(p.CoinInit()) // ⌈log₂ 256⌉ = 8 heads
	for i := 0; i < need; i++ {
		v := p.LEInitial(1) // fresh heads partner each time
		p.Transition(&u, &v)
		if i < need-1 && u.Mode() != ModeLE {
			t.Fatalf("u left LE after %d heads: %+v", i+1, u)
		}
	}
	// On the final head u becomes leader and, having plenty of budget,
	// transitions straight to the waiting state of the main protocol.
	if u.Mode() != ModeWait {
		t.Fatalf("after %d heads u = %+v, want waiting", need, u)
	}
	if u.Wait() != p.WaitInit() || u.Alive() != p.LMax() {
		t.Fatalf("waiting leader counters: wait=%d alive=%d, want (%d, %d)",
			u.Wait(), u.Alive(), p.WaitInit(), p.LMax())
	}
}

func TestFastLEDoneAgentIgnoresCoins(t *testing.T) {
	p := New(256, DefaultParams())
	u := p.LEInitial(0)
	u.setLeaderDone()
	cc := u.CoinCount()
	v := p.LEInitial(1)
	p.Transition(&u, &v)
	if u.CoinCount() != cc {
		t.Fatalf("done agent's coinCount changed: %d -> %d", cc, u.CoinCount())
	}
	if u.LECount() != p.LEBudget()-1 {
		t.Fatalf("done agent must still pay budget: LECount = %d", u.LECount())
	}
}

func TestFastLEBudgetExpiryTriggersReset(t *testing.T) {
	p := New(256, DefaultParams())
	u := p.LEInitial(0)
	u.setLeaderDone() // a loser waiting for someone else
	u.setLECount(1)
	v := p.LEInitial(1)
	p.Transition(&u, &v)
	if u.Mode() != ModeReset || u.ResetCount() != p.RMax() {
		t.Fatalf("expired agent = %+v, want triggered reset", u)
	}
	if p.ResetsFor(ReasonLEExpired) != 1 {
		t.Fatalf("le-expired resets = %d, want 1", p.ResetsFor(ReasonLEExpired))
	}
}

func TestFastLESlowLeaderDoesNotTransition(t *testing.T) {
	// A leader elected after LECount dropped below budget/2 must not
	// start the main phase (Protocol 5 line 9); it eventually expires.
	p := New(256, DefaultParams())
	u := p.LEInitial(0)
	u.setLECount(p.LEBudget()/2 - 1)
	u.setCoinCount(1)
	v := p.LEInitial(1) // heads
	p.Transition(&u, &v)
	if u.Mode() != ModeLE {
		t.Fatalf("slow leader transitioned: %+v", u)
	}
	if !u.IsLeader() || !u.LeaderDone() {
		t.Fatalf("slow leader flags: %+v", u)
	}
}

func TestFastLEOnlyInitiatorUpdates(t *testing.T) {
	p := New(256, DefaultParams())
	u, v := p.LEInitial(0), p.LEInitial(1)
	lc, cc := v.LECount(), v.CoinCount()
	p.Transition(&u, &v)
	if v.LECount() != lc || v.CoinCount() != cc {
		t.Fatalf("responder LE variables changed: %+v", v)
	}
}

func TestLEAgentJoinsMainAsPhaseOne(t *testing.T) {
	// Protocol 3 lines 4–6: an LE agent meeting a main agent becomes a
	// phase-1 agent with a full liveness counter, keeping its coin.
	p := New(256, DefaultParams())
	le := p.LEInitial(1)
	main := Ranked(42)
	p.Transition(&le, &main)
	if le.Mode() != ModePhase || le.Phase() != 1 || le.Alive() != p.LMax() || le.Coin() != 1 {
		t.Fatalf("LE initiator joined as %+v", le)
	}

	le2 := p.LEInitial(1)
	main2 := Ranked(42)
	p.Transition(&main2, &le2)
	// le2 is the responder: it joins and then its coin is toggled.
	if le2.Mode() != ModePhase || le2.Phase() != 1 || le2.Coin() != 0 {
		t.Fatalf("LE responder joined as %+v", le2)
	}
}

func TestFastLEUniqueWinnerProbability(t *testing.T) {
	// Lemma 30: from a balanced-coin start, exactly one agent wins the
	// lottery with probability > 1/(8e) ≈ 0.046. Measure the one-shot
	// success rate over independent populations; it is typically ≈ 1/e.
	if testing.Short() {
		t.Skip("statistical test is slow")
	}
	const n, trials = 128, 200
	wins := 0
	for trial := 0; trial < trials; trial++ {
		p := New(n, DefaultParams())
		r := sim.New[State](p, p.InitialStates(), uint64(1000+trial))
		// Run until every agent has decided (done, transitioned, or
		// reset).
		decided := func(_ int64, ss []State) bool {
			for i := range ss {
				if ss[i].Mode() == ModeLE && !ss[i].LeaderDone() {
					return false
				}
			}
			return true
		}
		if _, err := sim.Poll(r, 0, int64(50*n*17), decided); err != nil {
			continue
		}
		leaders := 0
		for _, s := range r.States() {
			if (s.Mode() == ModeLE && s.IsLeader()) || s.Mode() == ModeWait || s.Mode() == ModeRanked || s.Mode() == ModePhase {
				// Any agent already in the main protocol counts as an
				// elected leader (it transitioned via line 9–12) —
				// phase agents arise only from a leader's epidemic.
				if s.Mode() == ModeWait || (s.Mode() == ModeLE && s.IsLeader()) {
					leaders++
				}
			}
		}
		if leaders == 1 {
			wins++
		}
	}
	rate := float64(wins) / trials
	if rate < 1.0/(8*2.7182818) {
		t.Fatalf("unique-leader rate %.3f below the 1/(8e) bound", rate)
	}
}
