package interval

import (
	"ssrank/internal/proto"
	"ssrank/internal/rng"
)

// Describe returns the protocol's descriptor for range slack ε: the
// relaxed-range protocol is not self-stabilizing (fresh start only),
// its ranks live in [1, m] with m the effective identifier-space size
// (Space), and its stop tracker is the interval-disjointness condition
// rather than the default permutation tracker — distinct Lo endpoints
// alone would not certify silence.
func Describe(epsilon float64) proto.Descriptor[State, *Protocol] {
	return proto.Descriptor[State, *Protocol]{
		Name:  "interval",
		Inits: []string{"fresh"},
		New:   func(n int) *Protocol { return New(n, epsilon) },
		Init: func(p *Protocol, init string, _ *rng.RNG) []State {
			if init == "fresh" {
				return p.InitialStates()
			}
			return nil
		},
		Valid: Valid,
		Rank:  func(s *State) int { return int(s.Lo) },
		Space: func(p *Protocol) int { return int(p.M()) },
		Cond: func(p *Protocol) proto.Condition[State] {
			return NewDisjointCond(p.M())
		},
		CondBytes: func(p *Protocol) int64 { return DisjointCondBytes(p.M(), p.N()) },
		Budget:    proto.BudgetN2(5000),
	}
}
