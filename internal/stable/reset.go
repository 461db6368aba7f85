package stable

// propagateReset implements the PropagateReset subprotocol (§V-A,
// following Burman et al. PODC'21). It is invoked whenever at least one
// of the two agents is in ModeReset.
//
// Classes: an agent is *propagating* while resetCount > 0, *dormant*
// when resetCount = 0 and delayCount > 0, and *computing* otherwise
// (i.e. in any non-reset mode). The rules are role-agnostic: the reset
// epidemic spreads regardless of which agent initiated the interaction.
//
//   - propagating p meets computing c: p.resetCount--; c becomes
//     propagating with (p.resetCount, D_max), keeping only its coin
//     (initialized to 0 if it had none).
//   - propagating p meets propagating q: both adopt
//     max(resetCounts) − 1.
//   - propagating p meets dormant d: p.resetCount--; d.delayCount--.
//   - dormant d meets anything: d.delayCount--.
//
// When delayCount reaches 0 the agent forgets its reset state and
// (re-)enters FastLeaderElection, keeping its coin.
func (p *Protocol) propagateReset(u, v *State) {
	uProp, vProp := u.IsPropagating(), v.IsPropagating()
	uDorm, vDorm := u.IsDormant(), v.IsDormant()

	switch {
	case uProp && vProp:
		m := max(u.ResetCount(), v.ResetCount()) - 1
		u.setResetCount(m)
		v.setResetCount(m)

	case uProp:
		u.setResetCount(u.ResetCount() - 1)
		if vDorm {
			v.countDown()
		} else {
			// v is computing: it becomes propagating.
			coin := uint8(0)
			if v.HasCoin() {
				coin = v.Coin()
			}
			*v = ResetState(coin, u.ResetCount(), p.dMax)
		}

	case vProp:
		v.setResetCount(v.ResetCount() - 1)
		if uDorm {
			u.countDown()
		} else {
			coin := uint8(0)
			if u.HasCoin() {
				coin = u.Coin()
			}
			*u = ResetState(coin, v.ResetCount(), p.dMax)
		}

	default:
		// At least one dormant agent, no propagating ones.
		if uDorm {
			u.countDown()
		}
		if vDorm {
			v.countDown()
		}
	}

	p.awaken(u)
	p.awaken(v)
}

// countDown decrements a dormant agent's delayCount, stopping at 0:
// the agent awakens at 0 either way (awaken), and the counter holds no
// negative value.
func (s *State) countDown() {
	if d := s.DelayCount(); d > 0 {
		s.setDelayCount(d - 1)
	}
}

// awaken moves a reset agent whose dormancy has run out into the
// FastLeaderElection initial state, preserving its coin (§V-A).
func (p *Protocol) awaken(s *State) {
	if s.tag() == tagReset && s.ResetCount() == 0 && s.DelayCount() == 0 {
		*s = p.LEInitial(s.Coin())
	}
}
