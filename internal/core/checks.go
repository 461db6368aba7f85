package core

import "fmt"

// Valid reports whether the configuration is in C_L: every agent is
// ranked and the ranks form a permutation of 1..n.
func Valid(states []State) bool {
	seen := make([]bool, len(states)+1)
	for i := range states {
		s := &states[i]
		if s.Kind != KindRanked || s.Rank < 1 || int(s.Rank) > len(states) || seen[s.Rank] {
			return false
		}
		seen[s.Rank] = true
	}
	return true
}

// RankOf returns the agent's rank, or 0 while unranked — the extractor
// behind the engine's incremental validity condition.
func RankOf(s *State) int {
	if s.Kind != KindRanked {
		return 0
	}
	return int(s.Rank)
}

// Silent reports whether no interaction can change any agent's state.
// For SpaceEfficientRanking this holds exactly when no agent is
// leader-electing and no agent is a phase agent: every rule of
// Protocols 1–2 requires one of those roles. Note that a silent
// configuration is not necessarily valid (the protocol is correct only
// w.h.p.); tests distinguish the two.
func Silent(states []State) bool {
	for i := range states {
		switch states[i].Kind {
		case KindLE, KindPhase:
			return false
		}
	}
	return true
}

// RankedCount returns the number of ranked agents.
func RankedCount(states []State) int {
	c := 0
	for i := range states {
		if states[i].Kind == KindRanked {
			c++
		}
	}
	return c
}

// MeanPhase returns the average of the phase counters over phase agents
// (the red series of Fig. 2). It returns 0 when there are no phase
// agents.
func MeanPhase(states []State) float64 {
	sum, c := 0.0, 0
	for i := range states {
		if states[i].Kind == KindPhase {
			sum += float64(states[i].Phase)
			c++
		}
	}
	if c == 0 {
		return 0
	}
	return sum / float64(c)
}

// CheckInvariant verifies structural well-formedness of a configuration
// with respect to the protocol parameters: every field is inside its
// declared range (the paper's state space is finite; a value outside it
// would mean the implementation left the state space). It returns a
// descriptive error for the first violation found.
func (p *Protocol) CheckInvariant(states []State) error {
	n := int32(p.phases.n)
	for i := range states {
		s := &states[i]
		switch s.Kind {
		case KindRanked:
			if s.Rank < 1 || s.Rank > n {
				return fmt.Errorf("agent %d: rank %d outside [1, %d]", i, s.Rank, n)
			}
		case KindPhase:
			if s.Phase < 1 || s.Phase > p.phases.kMax {
				return fmt.Errorf("agent %d: phase %d outside [1, %d]", i, s.Phase, p.phases.kMax)
			}
		case KindWait:
			if s.Wait < 1 || s.Wait > p.waitInit {
				return fmt.Errorf("agent %d: wait %d outside [1, %d]", i, s.Wait, p.waitInit)
			}
		case KindLE:
			if s.LE.Level < 0 || int(s.LE.Level) > p.le.LevelCap() {
				return fmt.Errorf("agent %d: LE level %d outside [0, %d]", i, s.LE.Level, p.le.LevelCap())
			}
		default:
			return fmt.Errorf("agent %d: invalid kind %d", i, s.Kind)
		}
	}
	return nil
}

// CountKinds tallies the number of agents per role; useful in tests and
// traces.
func CountKinds(states []State) (le, wait, phase, ranked int) {
	for i := range states {
		switch states[i].Kind {
		case KindLE:
			le++
		case KindWait:
			wait++
		case KindPhase:
			phase++
		case KindRanked:
			ranked++
		}
	}
	return le, wait, phase, ranked
}
