package core

import (
	"ssrank/internal/proto"
	"ssrank/internal/rng"
)

// Describe returns the protocol's descriptor. SpaceEfficientRanking is
// not self-stabilizing (correct w.h.p. from the fresh start only), so
// the init table is a single entry and there is no fault-injection
// primitive.
func Describe() proto.Descriptor[State, *Protocol] {
	return proto.Descriptor[State, *Protocol]{
		Name:  "space-efficient",
		Inits: []string{"fresh"},
		New:   func(n int) *Protocol { return New(n, DefaultParams()) },
		Init: func(p *Protocol, init string, _ *rng.RNG) []State {
			if init == "fresh" {
				return p.InitialStates()
			}
			return nil
		},
		Valid:  Valid,
		Rank:   RankOf,
		Budget: proto.BudgetN2LogN(3000),
	}
}
