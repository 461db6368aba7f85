// Package stable implements the paper's headline result: the silent,
// self-stabilizing ranking protocol StableRanking (§V), consisting of
// the subprotocols PropagateReset (§V-A), FastLeaderElection (§V-B,
// Protocol 5) and Ranking+ (§V-C, Protocol 4), glued together by the
// dispatcher of Protocol 3.
//
// Starting from an arbitrary configuration, the protocol reaches a
// configuration in which all agents hold distinct ranks from {1..n}
// within O(n² log n) interactions w.h.p., using n + O(log² n) states
// (Theorem 2). Declaring the agent with rank 1 the leader turns it into
// a silent self-stabilizing leader-election protocol.
package stable

import "fmt"

// Mode identifies which subprotocol an agent is currently executing.
// The paper's state space is a disjoint union; Mode selects the branch.
type Mode uint8

const (
	// ModeRanked is a ranked agent. Crucially it stores nothing beyond
	// its rank — no coin, no liveness counter — which is what keeps the
	// overhead at O(log² n) states (§I).
	ModeRanked Mode = iota + 1
	// ModeReset is an agent executing PropagateReset: propagating when
	// ResetCount > 0, dormant when ResetCount == 0 and DelayCount > 0.
	ModeReset
	// ModeLE is an agent executing FastLeaderElection.
	ModeLE
	// ModeWait is a main-protocol waiting agent (the leader waiting out
	// a phase transition).
	ModeWait
	// ModePhase is a main-protocol unranked phase agent.
	ModePhase
)

// String implements fmt.Stringer for diagnostics.
func (m Mode) String() string {
	switch m {
	case ModeRanked:
		return "ranked"
	case ModeReset:
		return "reset"
	case ModeLE:
		return "leader-electing"
	case ModeWait:
		return "waiting"
	case ModePhase:
		return "phase"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// State is the per-agent state of StableRanking. Only the fields
// relevant to the current Mode are meaningful; constructors zero the
// rest so that states are comparable with == in tests.
type State struct {
	Mode Mode

	// Coin is the synthetic coin, present for every mode except
	// ModeRanked; it is toggled whenever the agent is the responder.
	Coin uint8

	// Rank ∈ [1, n] — ModeRanked.
	Rank int32

	// ResetCount ∈ [0, Rmax], DelayCount ∈ [0, Dmax] — ModeReset.
	ResetCount int16
	DelayCount int16

	// LECount ∈ [0, Lmax], CoinCount ∈ [0, ⌈log₂ n⌉], LeaderDone,
	// IsLeader — ModeLE (Protocol 5).
	LECount    int16
	CoinCount  int16
	LeaderDone bool
	IsLeader   bool

	// Wait ∈ [1, ⌈c_wait·log₂ n⌉] — ModeWait;
	// Phase ∈ [1, ⌈log₂ n⌉] — ModePhase;
	// Alive ∈ [1, Lmax] — both unranked main modes.
	Wait  int16
	Phase int16
	Alive int16
}

// Ranked returns a ranked-agent state.
func Ranked(rank int32) State { return State{Mode: ModeRanked, Rank: rank} }

// IsUnrankedMain reports whether the agent is a main-protocol agent
// without a rank (waiting or phase), i.e. carries coin and aliveCount.
func (s *State) IsUnrankedMain() bool { return s.Mode == ModeWait || s.Mode == ModePhase }

// IsMain reports whether the agent executes the main protocol Ranking+
// (X(v) ∈ Q_Main in the paper's notation).
func (s *State) IsMain() bool {
	return s.Mode == ModeRanked || s.Mode == ModeWait || s.Mode == ModePhase
}

// IsPropagating reports whether the agent is a propagating reset agent.
func (s *State) IsPropagating() bool { return s.Mode == ModeReset && s.ResetCount > 0 }

// IsDormant reports whether the agent is a dormant reset agent.
func (s *State) IsDormant() bool { return s.Mode == ModeReset && s.ResetCount == 0 }

// HasCoin reports whether the state carries a synthetic coin.
func (s *State) HasCoin() bool { return s.Mode != ModeRanked }

// String renders the state compactly for traces and test failures.
func (s State) String() string {
	switch s.Mode {
	case ModeRanked:
		return fmt.Sprintf("rank(%d)", s.Rank)
	case ModeReset:
		return fmt.Sprintf("reset(r=%d,d=%d,c=%d)", s.ResetCount, s.DelayCount, s.Coin)
	case ModeLE:
		return fmt.Sprintf("le(cnt=%d,cc=%d,done=%t,ldr=%t,c=%d)", s.LECount, s.CoinCount, s.LeaderDone, s.IsLeader, s.Coin)
	case ModeWait:
		return fmt.Sprintf("wait(%d,a=%d,c=%d)", s.Wait, s.Alive, s.Coin)
	case ModePhase:
		return fmt.Sprintf("phase(%d,a=%d,c=%d)", s.Phase, s.Alive, s.Coin)
	default:
		return fmt.Sprintf("invalid(%d)", uint8(s.Mode))
	}
}
