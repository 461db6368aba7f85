package cai

import (
	"ssrank/internal/proto"
	"ssrank/internal/rng"
)

// Describe returns the protocol's descriptor: n-state self-stabilizing
// ranking, so every configuration with labels in [1, n] is legal and
// the "random" init draws one uniformly via RandomConfig.
func Describe() proto.Descriptor[State, *Protocol] {
	return proto.Descriptor[State, *Protocol]{
		Name:            "cai",
		Inits:           []string{"fresh", "random"},
		SelfStabilizing: true,
		New:             New,
		Init: func(p *Protocol, init string, r *rng.RNG) []State {
			switch init {
			case "fresh":
				return p.InitialStates()
			case "random":
				return p.RandomConfig(r)
			}
			return nil
		},
		Valid:       Valid,
		Rank:        RankOf,
		RandomState: (*Protocol).RandomState,
		Budget:      proto.BudgetN3(2000),
	}
}
