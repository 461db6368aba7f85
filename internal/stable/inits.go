package stable

import "ssrank/internal/rng"

// This file provides the initial configurations used by the paper's
// evaluation (§VI) and by the self-stabilization experiments. Being
// self-stabilizing, the protocol accepts any of them — these builders
// exist so experiments are reproducible.

// WorstCaseInit is the initialization of Fig. 2: agents 1..n-1 hold
// ranks 2..n, and one agent is a phase agent with the maximum phase and
// a full liveness counter. No productive pair exists (rank 1 is
// missing), so the only way out is the liveness counter draining
// through meetings with the agents ranked n−1 and n — which takes
// Θ(n² log n) interactions in expectation, the protocol's worst case
// (DESIGN.md note 7).
func (p *Protocol) WorstCaseInit() []State {
	states := make([]State, p.n)
	for i := 0; i < p.n-1; i++ {
		states[i] = Ranked(int32(i + 2))
	}
	states[p.n-1] = PhaseState(0, int16(p.phases.KMax()), p.lMax)
	return states
}

// Fig3Init is the initialization of Fig. 3: one agent holds rank 1 (the
// unaware leader) and all other agents are "still in a leader election
// state". The LE agents are decided non-leaders (leaderDone = 1,
// isLeader = 0): a fresh lottery would elect a second leader with
// constant probability and contaminate the measured ranking curve with
// resets, which is clearly not what the figure shows (EXPERIMENTS.md,
// E2 inference note).
func (p *Protocol) Fig3Init() []State {
	states := make([]State, p.n)
	states[0] = Ranked(1)
	for i := 1; i < p.n; i++ {
		states[i] = LEState(uint8(i&1), p.leBudget, 0, true, false)
	}
	return states
}

// DuplicateRanksInit yields a dead configuration with duplicate ranks
// (Lemma 24): all agents ranked, but rank 1 appears twice and rank n is
// missing, so no productive pair exists until the duplicates meet.
func (p *Protocol) DuplicateRanksInit() []State {
	states := make([]State, p.n)
	states[0] = Ranked(1)
	states[1] = Ranked(1)
	for i := 2; i < p.n; i++ {
		states[i] = Ranked(int32(i))
	}
	return states
}

// SingleUnrankedInit yields the dead configuration of Lemma 25: a
// single unranked phase agent with maximal phase, all ranks but rank 1
// assigned (so ranks n−1 and n are present and drain its counter).
func (p *Protocol) SingleUnrankedInit() []State {
	return p.WorstCaseInit()
}

// ManyUnrankedInit yields the dead configuration of Lemma 26: k ≥ 2
// unranked phase agents at maximal phase with staggered liveness
// counters, and the remaining agents ranked with the top ranks present
// but rank 1 absent (no productive pairs).
func (p *Protocol) ManyUnrankedInit(k int) []State {
	if k < 2 {
		k = 2
	}
	if k > p.n-1 {
		k = p.n - 1
	}
	states := make([]State, p.n)
	for i := 0; i < k; i++ {
		alive := max(p.lMax-int32(i)%p.lMax, 1)
		states[i] = PhaseState(uint8(i&1), int16(p.phases.KMax()), alive)
	}
	// Ranks n, n−1, ..., down, skipping rank 1 so no unaware leader
	// exists.
	r := int32(p.n)
	for i := k; i < p.n; i++ {
		states[i] = Ranked(r)
		r--
	}
	return states
}

// RandomConfig returns an arbitrary configuration drawn uniformly from
// the protocol's full state space — the adversary of the
// self-stabilization theorem. Every variable is drawn independently
// from its declared range.
func (p *Protocol) RandomConfig(r *rng.RNG) []State {
	states := make([]State, p.n)
	for i := range states {
		states[i] = p.RandomState(r)
	}
	return states
}

// RandomState draws a single uniformly random state from the declared
// state space (used by RandomConfig and by property tests).
func (p *Protocol) RandomState(r *rng.RNG) State {
	coin := uint8(r.Intn(2))
	switch Mode(1 + r.Intn(5)) {
	case ModeRanked:
		return Ranked(int32(1 + r.Intn(p.n)))
	case ModeReset:
		// Exclude the (0, 0) combination, which instantly awakens and
		// is therefore not a persistent state.
		for {
			rc, dc := int16(r.Intn(int(p.rMax)+1)), int32(r.Intn(int(p.dMax)+1))
			if rc != 0 || dc != 0 {
				return ResetState(coin, rc, dc)
			}
		}
	case ModeLE:
		done := r.Bool()
		isLeader := done && r.Bool()
		leCount := int16(1 + r.Intn(int(p.leBudget)))
		coinCount := int32(r.Intn(int(p.coinInit) + 1))
		return LEState(coin, leCount, coinCount, done, isLeader)
	case ModeWait:
		wait := int16(1 + r.Intn(int(p.waitInit)))
		return WaitState(coin, wait, int32(1+r.Intn(int(p.lMax))))
	default:
		phase := int16(1 + r.Intn(int(p.phases.KMax())))
		return PhaseState(coin, phase, int32(1+r.Intn(int(p.lMax))))
	}
}
