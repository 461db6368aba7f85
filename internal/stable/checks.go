package stable

import "fmt"

// Valid reports whether the configuration is in C_L: all agents ranked
// with ranks forming a permutation of 1..n.
func Valid(states []State) bool {
	seen := make([]bool, len(states)+1)
	for i := range states {
		s := &states[i]
		if s.Mode != ModeRanked || s.Rank() < 1 || int(s.Rank()) > len(states) || seen[s.Rank()] {
			return false
		}
		seen[s.Rank()] = true
	}
	return true
}

// RankOf returns the agent's rank, or 0 while unranked — the extractor
// behind the engine's incremental validity condition
// (sim.NewRankCond(0, stable.RankOf) tracks Valid in O(1) per
// interaction).
func RankOf(s *State) int {
	if s.Mode != ModeRanked {
		return 0
	}
	return int(s.Rank())
}

// RankedCount returns the number of ranked agents (the blue series of
// Fig. 2).
func RankedCount(states []State) int {
	c := 0
	for i := range states {
		if states[i].Mode == ModeRanked {
			c++
		}
	}
	return c
}

// MeanPhase returns the average phase counter over phase agents (the
// red series of Fig. 2), or 0 when there are none.
func MeanPhase(states []State) float64 {
	sum, c := 0.0, 0
	for i := range states {
		if states[i].Mode == ModePhase {
			sum += float64(states[i].Phase())
			c++
		}
	}
	if c == 0 {
		return 0
	}
	return sum / float64(c)
}

// CountModes tallies agents per mode.
func CountModes(states []State) map[Mode]int {
	m := make(map[Mode]int, 5)
	for i := range states {
		m[states[i].Mode]++
	}
	return m
}

// LeaderRank1 returns the index of the agent holding rank 1, or -1.
// With the paper's output function this is the elected leader.
func LeaderRank1(states []State) int {
	for i := range states {
		if states[i].Mode == ModeRanked && states[i].Rank() == 1 {
			return i
		}
	}
	return -1
}

// CheckInvariant verifies that every agent's variables lie inside the
// declared state space of Protocol 3 / Protocol 4. A violation means
// the implementation left the finite state space and would invalidate
// the paper's state-counting.
func (p *Protocol) CheckInvariant(states []State) error {
	n := int32(p.n)
	for i := range states {
		s := &states[i]
		if extra := s.flags &^ modeFlags(s.Mode); extra != 0 {
			return fmt.Errorf("agent %d: %s agent with flag bits %#x it does not carry", i, s.Mode, extra)
		}
		switch s.Mode {
		case ModeRanked:
			if s.Rank() < 1 || s.Rank() > n {
				return fmt.Errorf("agent %d: rank %d outside [1, %d]", i, s.Rank(), n)
			}
			if s.a != 0 {
				return fmt.Errorf("agent %d: ranked agent with unused field %d", i, s.a)
			}
		case ModeReset:
			if s.ResetCount() < 0 || s.ResetCount() > p.rMax {
				return fmt.Errorf("agent %d: resetCount %d outside [0, %d]", i, s.ResetCount(), p.rMax)
			}
			if s.DelayCount() < 0 || s.DelayCount() > p.dMax {
				return fmt.Errorf("agent %d: delayCount %d outside [0, %d]", i, s.DelayCount(), p.dMax)
			}
			if s.ResetCount() == 0 && s.DelayCount() == 0 {
				return fmt.Errorf("agent %d: reset agent with both counters zero (should have awakened)", i)
			}
		case ModeLE:
			if s.LECount() < 1 || s.LECount() > p.leBudget {
				return fmt.Errorf("agent %d: LECount %d outside [1, %d]", i, s.LECount(), p.leBudget)
			}
			if s.CoinCount() < 0 || s.CoinCount() > p.coinInit {
				return fmt.Errorf("agent %d: coinCount %d outside [0, %d]", i, s.CoinCount(), p.coinInit)
			}
		case ModeWait:
			if s.Wait() < 1 || s.Wait() > p.waitInit {
				return fmt.Errorf("agent %d: wait %d outside [1, %d]", i, s.Wait(), p.waitInit)
			}
			if s.Alive() < 1 || s.Alive() > p.lMax {
				return fmt.Errorf("agent %d: alive %d outside [1, %d]", i, s.Alive(), p.lMax)
			}
		case ModePhase:
			if s.Phase() < 1 || int32(s.Phase()) > p.phases.KMax() {
				return fmt.Errorf("agent %d: phase %d outside [1, %d]", i, s.Phase(), p.phases.KMax())
			}
			if s.Alive() < 1 || s.Alive() > p.lMax {
				return fmt.Errorf("agent %d: alive %d outside [1, %d]", i, s.Alive(), p.lMax)
			}
		default:
			return fmt.Errorf("agent %d: invalid mode %d", i, s.Mode)
		}
	}
	return nil
}

// modeFlags returns the flag bits an agent in mode m carries.
func modeFlags(m Mode) uint8 {
	switch m {
	case ModeRanked:
		return 0
	case ModeLE:
		return flagCoin | flagLeaderDone | flagIsLeader
	default:
		return flagCoin
	}
}
