package sudo

import (
	"ssrank/internal/proto"
	"ssrank/internal/rng"
)

// DefaultTimeoutFactor is the timeout scaling the descriptor binds:
// large enough that the holding time dwarfs the convergence time at
// every population size the experiments touch (E18 measures both).
const DefaultTimeoutFactor = 8

// Describe returns the protocol's descriptor for the given timeout
// factor. Loose stabilization is convergence without silence: the
// "rank" projection is the leader bit (1 = leader, 0 = everyone
// else), validity is the unique-leader predicate, and the stop
// tracker is the incremental leader count — uniqueness is transient,
// which is exactly why the exact tracker (not a polled scan) defines
// the hitting time here.
func Describe(timeoutFactor float64) proto.Descriptor[State, *Protocol] {
	return proto.Descriptor[State, *Protocol]{
		Name: "loose",
		// The two adversarial corners: drained no-leader, and
		// everyone-a-leader ("worst-case").
		Inits:           []string{"fresh", "worst-case"},
		SelfStabilizing: true,
		New:             func(n int) *Protocol { return New(n, timeoutFactor) },
		Init: func(p *Protocol, init string, _ *rng.RNG) []State {
			switch init {
			case "fresh":
				return p.InitialStates()
			case "worst-case":
				return p.AllLeaders()
			}
			return nil
		},
		Valid: UniqueLeader,
		// Uniqueness is transient — the protocol's defining property —
		// so only the exact tracker defines the hitting time; polled
		// engines must not be used to measure it.
		TransientStop: true,
		Rank: func(s *State) int {
			if s.Leader {
				return 1
			}
			return 0
		},
		Cond: func(p *Protocol) proto.Condition[State] {
			return NewLeaderCond()
		},
		CondBytes: func(p *Protocol) int64 { return LeaderCondBytes(p.N()) },
		RandomState: func(p *Protocol, r *rng.RNG) State {
			return State{Leader: r.Bool(), Timeout: int32(r.Intn(int(p.TMax()) + 1))}
		},
		Budget: proto.BudgetN2(5000),
	}
}
