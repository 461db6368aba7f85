package stable

import (
	"ssrank/internal/proto"
	"ssrank/internal/rng"
)

// Describe returns the protocol's descriptor: the single table the
// engine-facing layers (facade, experiment harness, CLIs) read instead
// of re-tabulating StableRanking's constructor, inits, validity, stop
// tracker, and instrumentation each for themselves.
func Describe() proto.Descriptor[State, *Protocol] {
	return proto.Descriptor[State, *Protocol]{
		Name:            "stable",
		Inits:           []string{"fresh", "worst-case", "random", "fig3"},
		SelfStabilizing: true,
		New:             func(n int) *Protocol { return New(n, DefaultParams()) },
		Init: func(p *Protocol, init string, r *rng.RNG) []State {
			switch init {
			case "fresh":
				return p.InitialStates()
			case "worst-case":
				return p.WorstCaseInit()
			case "random":
				return p.RandomConfig(r)
			case "fig3":
				return p.Fig3Init()
			}
			return nil
		},
		Valid:          Valid,
		Rank:           RankOf,
		Resets:         (*Protocol).Resets,
		ResetBreakdown: (*Protocol).ResetBreakdown,
		RandomState:    (*Protocol).RandomState,
		Probes: []proto.Probe[State, *Protocol]{
			// The mean phase counter over phase agents — the protocol's
			// clock observable, the third column of the paper's Fig. 2
			// trace. Registered here so observation layers (the facade's
			// Snapshot, the -trace CSV) read it through the descriptor
			// instead of importing this package.
			{Name: "mean_phase", Fn: func(_ *Protocol, states []State) float64 { return MeanPhase(states) }},
		},
		Instr:    Instr,
		SetInstr: SetInstr,
		Budget:   proto.BudgetN2LogN(3000),
	}
}
