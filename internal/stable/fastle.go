package stable

// fastLE implements FastLeaderElection (Protocol 5, Appendix C) for an
// interaction of two leader-electing agents. Only the initiator u
// updates its LE variables; the responder contributes its coin (and is
// toggled by the dispatcher afterwards).
//
// An agent declares itself leader after observing ⌈log₂ n⌉ heads on its
// partners in a row; a single tail before that makes it a permanent
// non-leader (leaderDone without isLeader). The leader transitions to
// the main protocol as the waiting agent provided it was elected fast
// enough (LECount ≥ L_max/2); an agent whose LECount expires without a
// transition triggers a reset — this covers the constant-probability
// event that no leader emerges (Lemma 30 gives success probability
// ≥ 1/(8e) per attempt, so O(log n) resets suffice w.h.p., Lemma 32).
func (p *Protocol) fastLE(u, v *State) {
	// Line 1: every initiator interaction costs budget.
	u.setLECount(u.LECount() - 1)

	// Lines 13–15: out of budget without having started ranking.
	if u.LECount() <= 0 {
		p.triggerReset(u, ReasonLEExpired)
		return
	}

	if !u.LeaderDone() {
		if v.Coin() == 0 {
			// Line 2: a tail — u will not be leader. The residual
			// coinCount is dropped so that "done" agents occupy a
			// single state per LECount value (state accounting).
			u.setLeaderDone()
			u.setCoinCount(0)
		} else {
			// Lines 4–8: count consecutive heads.
			u.setCoinCount(u.CoinCount() - 1)
			if u.CoinCount() <= 0 {
				u.setCoinCount(0)
				u.setIsLeader()
				u.setLeaderDone()
			}
		}
	}

	// Lines 9–12: a leader elected fast enough starts the main phase as
	// the waiting agent.
	if u.IsLeader() && u.LECount() >= p.leBudget/2 {
		*u = WaitState(u.Coin(), p.waitInit, p.lMax)
	}
}
