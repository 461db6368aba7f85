// Package interval implements a safe and silent ranking protocol that
// assigns ranks from the relaxed range [1, (1+ε)·n], in the spirit of
// the fast protocol of Gąsieniec, Jansson, Levcopoulos and Lingas
// (OPODIS'21) that the paper's related-work section discusses.
//
// The protocol realizes the time-vs-range trade-off those authors prove
// a lower bound for: assigning ranks from [1, n+r] costs at least
// n(n−1)/(2(r+1)) interactions in expectation, while with slack
// ε = Ω(1) ranking completes in O(n·log n/ε) interactions — quadratically
// faster than any exact-range protocol. Experiment E7 sweeps ε and
// compares the measured cost to the lower-bound curve.
//
// Mechanism: identifier space [1, m] with m = ⌈(1+ε)n⌉ rounded up to a
// power of two of capacity ≥ m. Every agent starts owning the full
// interval; when two agents owning the *same* interval of length ≥ 2
// meet, they split it in half; when an agent's interval strictly
// contains its partner's, it moves to the half avoiding the partner;
// when two agents own the same singleton, the responder restarts its
// descent from the root. Once all intervals
// are pairwise disjoint the configuration is silent and each agent's
// rank is the left endpoint of its interval. The protocol is not
// self-stabilizing (it is the paper's foil, not its subject).
package interval

import "fmt"

// State is the agent's owned identifier interval [Lo, Hi]; its
// (tentative, ultimately final) rank is Lo.
type State struct {
	Lo, Hi int32
}

// Protocol is the interval-splitting protocol.
type Protocol struct {
	n int
	m int32 // identifier-space size: power of two ≥ ⌈(1+ε)n⌉
}

// MaxSpace bounds (1+ε)n: the identifier space, a power of two, must
// fit State's int32 endpoints and DisjointCond's int32 heap indices.
const MaxSpace = 1 << 30

// New builds the protocol for n ≥ 2 agents and finite slack ε ≥ 0 with
// (1+ε)n ≤ MaxSpace. The identifier space is the smallest power of
// two ≥ max(n, ⌈(1+ε)n⌉), so the effective range may exceed (1+ε)n by
// up to 2× (intervals are binary-tree nodes; the census reports the
// effective m).
func New(n int, epsilon float64) *Protocol {
	if n < 2 {
		panic(fmt.Sprintf("interval: n must be >= 2, got %d", n))
	}
	if !(epsilon >= 0) {
		panic(fmt.Sprintf("interval: epsilon must be >= 0, got %v", epsilon))
	}
	space := float64(n) * (1 + epsilon)
	if space > MaxSpace {
		panic(fmt.Sprintf("interval: (1+ε)n = %v exceeds the identifier-space limit %d", space, MaxSpace))
	}
	want := int32(space)
	m := int32(1)
	for m < want {
		m <<= 1
	}
	return &Protocol{n: n, m: m}
}

// N returns the population size.
func (p *Protocol) N() int { return p.n }

// M returns the effective identifier-space size.
func (p *Protocol) M() int32 { return p.m }

// InitialStates returns the start configuration: every agent owns the
// full interval [1, m].
func (p *Protocol) InitialStates() []State {
	states := make([]State, p.n)
	for i := range states {
		states[i] = State{Lo: 1, Hi: p.m}
	}
	return states
}

// Transition applies the split/evade rules.
func (p *Protocol) Transition(u, v *State) {
	p.TransitionT(u, v)
}

// TransitionT applies one interaction and reports which agents' owned
// interval (the projection the disjointness tracker watches) changed —
// the TouchReporter capability behind the engine's touch-aware exact
// stopping. Every rule that fires moves at least one interval, so the
// report falls straight out of the rule dispatch: a split moves both
// endpoints, a singleton restart and an evasion move exactly one
// agent, and disjoint pairs (all of them, once the configuration is
// silent) report nothing.
func (p *Protocol) TransitionT(u, v *State) (uTouched, vTouched bool) {
	switch {
	case u.Lo == v.Lo && u.Hi == v.Hi:
		if u.Hi > u.Lo {
			// Equal intervals of length ≥ 2 split in half.
			mid := u.Lo + (u.Hi-u.Lo)/2
			u.Hi = mid
			v.Lo = mid + 1
			return true, true
		}
		// Equal singletons: the responder restarts from the root
		// and is re-placed by the split/evade rules on later
		// meetings (a fresh descent, steered away from occupied
		// blocks). A merely local escape cannot leave a fully
		// occupied subtree, and without any escape the pair is a
		// dead end whenever the identifier space is tight.
		v.Lo, v.Hi = 1, p.m
		return false, true
	case u.Lo <= v.Lo && v.Hi <= u.Hi:
		// u strictly contains v: u evades into the half avoiding v.
		u.evade(v)
		return true, false
	case v.Lo <= u.Lo && u.Hi <= v.Hi:
		v.evade(u)
		return false, true
	}
	return false, false
}

// evade moves s to the half of its interval that does not contain the
// (strictly smaller) interval o.
func (s *State) evade(o *State) {
	mid := s.Lo + (s.Hi-s.Lo)/2
	if o.Hi <= mid {
		s.Lo = mid + 1
	} else {
		s.Hi = mid
	}
}

// Valid reports whether all intervals are pairwise disjoint — the
// silent configurations, in which the Lo endpoints are distinct ranks
// in [1, m].
func Valid(states []State) bool {
	// Sort by Lo via a small insertion copy; populations are modest and
	// validity checks are amortized by the engine.
	byLo := make([]State, len(states))
	copy(byLo, states)
	for i := 1; i < len(byLo); i++ {
		for j := i; j > 0 && byLo[j].Lo < byLo[j-1].Lo; j-- {
			byLo[j], byLo[j-1] = byLo[j-1], byLo[j]
		}
	}
	for i := 1; i < len(byLo); i++ {
		if byLo[i].Lo <= byLo[i-1].Hi {
			return false
		}
	}
	return true
}

// Ranks extracts the rank (Lo endpoint) of every agent.
func Ranks(states []State) []int32 {
	out := make([]int32, len(states))
	for i := range states {
		out[i] = states[i].Lo
	}
	return out
}

// CheckInvariant verifies that every interval is a well-formed binary
// tree node of the identifier space.
func (p *Protocol) CheckInvariant(states []State) error {
	for i := range states {
		s := &states[i]
		if s.Lo < 1 || s.Hi > p.m || s.Lo > s.Hi {
			return fmt.Errorf("agent %d: malformed interval [%d, %d]", i, s.Lo, s.Hi)
		}
		length := s.Hi - s.Lo + 1
		if length&(length-1) != 0 {
			return fmt.Errorf("agent %d: interval [%d, %d] is not a power-of-two block", i, s.Lo, s.Hi)
		}
		if (s.Lo-1)%length != 0 {
			return fmt.Errorf("agent %d: interval [%d, %d] is not aligned", i, s.Lo, s.Hi)
		}
	}
	return nil
}

// LowerBound returns the Gąsieniec et al. lower bound on the expected
// number of interactions for any safe+silent protocol assigning ranks
// from [1, n+r]: n(n−1)/(2(r+1)).
func LowerBound(n, r int) float64 {
	return float64(n) * float64(n-1) / (2 * float64(r+1))
}
