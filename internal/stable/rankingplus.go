package stable

// rankingPlus implements Ranking+ (Protocol 4) for an interaction of
// two main-protocol agents (initiator u, responder v). It extends the
// base protocol Ranking (Protocol 2, reimplemented over stable.State in
// baseRanking) with error detection and liveness checking; detected
// errors trigger PropagateReset.
//
// It reports which agents' rank projection (RankOf) changed, with the
// flags set at the mutation sites themselves: rank events are rare, so
// the no-op majority (two compatible ranked agents meeting, liveness
// refreshes, phase adoption) reports at zero cost — the measurement
// the engine's touch-aware exact stopping relies on.
//
// The dispatcher handles two ranked agents itself (TransitionT), line 1
// included, so at least one of u and v is unranked here.
func (p *Protocol) rankingPlus(u, v *State) (uTouched, vTouched bool) {
	// Lines 2–4, error detection: two waiting agents.
	if u.tag() == tagWait && v.tag() == tagWait {
		p.triggerReset(u, ReasonTwoWaiting)
		return false, false // waiting agents hold no rank
	}

	// Lines 5–11, liveness checking.
	if u.IsUnrankedMain() && v.IsUnrankedMain() {
		// Lines 5–6: both check liveness — adopt the maximum minus one.
		m := max(u.Alive(), v.Alive()) - 1
		if m <= 0 {
			// The counter hit zero (DESIGN.md note 4). Both witnesses
			// reset: aliveCount = 0 is outside the declared state
			// space {1..Lmax}, so neither agent may keep it.
			p.triggerReset(u, ReasonAliveExpired)
			p.triggerReset(v, ReasonAliveExpired)
			return false, false // both were unranked
		}
		u.setAlive(m)
		v.setAlive(m)
	}
	if u.IsRanked() && u.Rank() >= int32(p.n)-1 && v.IsUnrankedMain() {
		// Lines 7–11: meeting an agent ranked n−1 or n drains the
		// responder's counter; expiry triggers a reset — on both
		// agents, as above (the paper's pseudocode resets u; v's
		// counter would otherwise sit at 0, outside its domain).
		if v.Alive() <= 1 {
			p.triggerReset(u, ReasonAliveExpired)
			p.triggerReset(v, ReasonAliveExpired)
			return true, false // u was ranked, v was not
		}
		v.setAlive(v.Alive() - 1)
	}

	if !v.IsUnrankedMain() {
		// v carries no coin (it is ranked); neither the liveness-refresh
		// branch nor the base protocol applies (Protocol 2 line 1 would
		// return immediately as well).
		return false, false
	}

	if v.Coin() == 0 {
		// Lines 12–14: v's coin shows tails — refresh its liveness
		// counter if the pair could have made progress (a "productive
		// pair"): u is waiting, or u is the unaware leader for v's
		// phase.
		if u.tag() == tagWait || p.isUnawareLeaderFor(u, v) {
			v.setAlive(p.lMax)
		}
		return false, false
	}

	// Lines 15–18: v's coin shows heads — execute the base protocol.
	return p.baseRanking(u, v)
}

// isUnawareLeaderFor reports the productive-pair condition of Protocol 4
// line 13: u is ranked, v is a phase agent, and u's rank lies in the
// leader range for v's phase. The default uses the exact width
// f_k − f_{k+1}; Params.PaperLiteralProductive selects the paper-literal
// ⌊n·2^{−phase(v)}⌋ (DESIGN.md note 2).
func (p *Protocol) isUnawareLeaderFor(u, v *State) bool {
	if !u.IsRanked() || v.tag() != tagPhase {
		return false
	}
	if p.literal {
		bound := int32(p.n) >> uint(v.Phase())
		return u.Rank() >= 1 && u.Rank() <= bound
	}
	return u.Rank() >= 1 && u.Rank() <= p.phases.Width(int32(v.Phase()))
}

// baseRanking reimplements Ranking (Protocol 2) over stable.State,
// including the bookkeeping Ranking+ needs: agents becoming ranked drop
// their coin and liveness counter, and the leader entering waiting
// regains a coin (0) and a full liveness counter (Protocol 4 lines
// 17–18). Like rankingPlus it
// reports rank-projection changes from the mutation sites: a rank
// assigned (vTouched), the unaware leader's rank advancing or being
// given up for waiting, and the waiting agent re-entering with rank 1
// (uTouched).
//
// The transition logic mirrors core.(*Protocol).Ranking exactly; the
// equivalence is checked by a cross-validation property test.
func (p *Protocol) baseRanking(u, v *State) (uTouched, vTouched bool) {
	// Line 1: if v is not a phase agent, do nothing.
	if v.tag() != tagPhase {
		return false, false
	}
	switch u.Mode() {
	case ModeRanked:
		k := int32(v.Phase())
		width := p.phases.Width(k)
		switch {
		case u.Rank() >= 1 && u.Rank() <= width:
			// u is the unaware leader: assign the next rank of phase k.
			*v = Ranked(p.phases.F(k+1) + u.Rank())
			vTouched = true
			if u.Rank() < width {
				u.setRank(u.Rank() + 1) // the leader's rank value moved
				uTouched = true
			} else if k < p.phases.KMax() {
				// End of a non-final phase: forget the rank, wait out
				// the phase transition.
				*u = WaitState(0, p.waitInit, p.lMax)
				return true, true
			}
			// k = kMax: the leader keeps rank 1 unchanged.
		case u.Rank() == p.phases.F(k):
			// u holds the last rank of v's phase: v advances
			// (saturating at ⌈log₂ n⌉, DESIGN.md note 3).
			if k < p.phases.KMax() {
				v.setPhase(int16(k + 1))
			}
		}
	case ModePhase:
		// Two phase agents adopt the more advanced phase.
		if u.Phase() > v.Phase() {
			v.setPhase(u.Phase())
		} else {
			u.setPhase(v.Phase())
		}
	case ModeWait:
		// The waiting agent counts down against phase agents and
		// ultimately re-enters with rank 1.
		if w := u.Wait() - 1; w > 0 {
			u.setWait(w)
		} else {
			*u = Ranked(1)
			uTouched = true
		}
	}
	return uTouched, vTouched
}
