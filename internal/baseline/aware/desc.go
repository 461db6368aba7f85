package aware

import (
	"ssrank/internal/proto"
	"ssrank/internal/rng"
)

// Describe returns the protocol's descriptor. The aware-leader
// baseline is self-stabilizing, so alongside the fresh start it
// accepts a uniformly random configuration (RandomConfig — the
// adversary of its stabilization claim) and supports fault injection.
func Describe() proto.Descriptor[State, *Protocol] {
	return proto.Descriptor[State, *Protocol]{
		Name:            "aware",
		Inits:           []string{"fresh", "random"},
		SelfStabilizing: true,
		New:             func(n int) *Protocol { return New(n, DefaultParams()) },
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
		Resets:      (*Protocol).Resets,
		RandomState: (*Protocol).RandomState,
		Instr:       Instr,
		SetInstr:    SetInstr,
		Budget:      proto.BudgetN2LogN(3000),
	}
}
