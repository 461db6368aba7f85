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

// State is the per-agent state of StableRanking: a tagged union of 8
// bytes. Mode selects the branch of the paper's disjoint state space,
// and the payload holds only that branch's variables:
//
//	mode     flags                         a           b
//	ranked   —                             —           rank
//	reset    coin                          ResetCount  DelayCount
//	LE       coin, LeaderDone, IsLeader    LECount     CoinCount
//	wait     coin                          Wait        Alive
//	phase    coin                          Phase       Alive
//
// Reads and writes go through the accessors and mode constructors
// below, which read and write each variable at the width of the field
// that holds it (an int32 b is read as an int32, never narrowed). The
// constructors zero every field their mode does not use, so states are
// comparable with ==.
type State struct {
	Mode  Mode
	flags uint8
	a     int16
	b     int32
}

// The bits of State.flags.
const (
	flagCoin       uint8 = 1 << iota // the synthetic coin (every mode but ranked)
	flagLeaderDone                   // ModeLE: the lottery is decided
	flagIsLeader                     // ModeLE: the lottery was won
)

// Ranked returns a ranked-agent state.
func Ranked(rank int32) State { return State{Mode: ModeRanked, b: rank} }

// ResetState returns a PropagateReset state (ModeReset).
func ResetState(coin uint8, resetCount int16, delayCount int32) State {
	return State{Mode: ModeReset, flags: coin & flagCoin, a: resetCount, b: delayCount}
}

// LEState returns a FastLeaderElection state (ModeLE).
func LEState(coin uint8, leCount int16, coinCount int32, leaderDone, isLeader bool) State {
	f := coin & flagCoin
	if leaderDone {
		f |= flagLeaderDone
	}
	if isLeader {
		f |= flagIsLeader
	}
	return State{Mode: ModeLE, flags: f, a: leCount, b: coinCount}
}

// WaitState returns a waiting main-protocol state (ModeWait).
func WaitState(coin uint8, wait int16, alive int32) State {
	return State{Mode: ModeWait, flags: coin & flagCoin, a: wait, b: alive}
}

// PhaseState returns an unranked main-protocol phase state
// (ModePhase).
func PhaseState(coin uint8, phase int16, alive int32) State {
	return State{Mode: ModePhase, flags: coin & flagCoin, a: phase, b: alive}
}

// Coin is the synthetic coin, present for every mode except
// ModeRanked; the dispatcher toggles it whenever the agent is the
// responder.
func (s State) Coin() uint8 { return s.flags & flagCoin }

// Rank ∈ [1, n] — ModeRanked.
func (s State) Rank() int32 { return s.b }

// ResetCount ∈ [0, R_max] — ModeReset.
func (s State) ResetCount() int16 { return s.a }

// DelayCount ∈ [0, D_max] — ModeReset.
func (s State) DelayCount() int32 { return s.b }

// LECount ∈ [0, L_max] — ModeLE (Protocol 5).
func (s State) LECount() int16 { return s.a }

// CoinCount ∈ [0, ⌈log₂ n⌉] — ModeLE.
func (s State) CoinCount() int32 { return s.b }

// LeaderDone reports that the agent's lottery is decided — ModeLE.
func (s State) LeaderDone() bool { return s.flags&flagLeaderDone != 0 }

// IsLeader reports that the agent won its lottery — ModeLE.
func (s State) IsLeader() bool { return s.flags&flagIsLeader != 0 }

// Wait ∈ [1, ⌈c_wait·log₂ n⌉] — ModeWait.
func (s State) Wait() int16 { return s.a }

// Phase ∈ [1, ⌈log₂ n⌉] — ModePhase.
func (s State) Phase() int16 { return s.a }

// Alive ∈ [1, L_max] — both unranked main modes.
func (s State) Alive() int32 { return s.b }

// The setters of the variables transitions change in place, each at
// its field's width; a change of mode replaces the whole state through
// a constructor instead.
func (s *State) setRank(rank int32)    { s.b = rank }
func (s *State) setResetCount(c int16) { s.a = c }
func (s *State) setDelayCount(c int32) { s.b = c }
func (s *State) setLECount(c int16)    { s.a = c }
func (s *State) setCoinCount(c int32)  { s.b = c }
func (s *State) setLeaderDone()        { s.flags |= flagLeaderDone }
func (s *State) setIsLeader()          { s.flags |= flagIsLeader }
func (s *State) setWait(w int16)       { s.a = w }
func (s *State) setPhase(phase int16)  { s.a = phase }
func (s *State) setAlive(alive int32)  { s.b = alive }
func (s *State) toggleCoin()           { s.flags ^= flagCoin }

// IsUnrankedMain reports whether the agent is a main-protocol agent
// without a rank (waiting or phase), i.e. carries coin and aliveCount.
func (s *State) IsUnrankedMain() bool { return s.Mode == ModeWait || s.Mode == ModePhase }

// IsMain reports whether the agent executes the main protocol Ranking+
// (X(v) ∈ Q_Main in the paper's notation).
func (s *State) IsMain() bool {
	return s.Mode == ModeRanked || s.Mode == ModeWait || s.Mode == ModePhase
}

// IsPropagating reports whether the agent is a propagating reset agent.
func (s *State) IsPropagating() bool { return s.Mode == ModeReset && s.a > 0 }

// IsDormant reports whether the agent is a dormant reset agent.
func (s *State) IsDormant() bool { return s.Mode == ModeReset && s.a == 0 }

// HasCoin reports whether the state carries a synthetic coin.
func (s *State) HasCoin() bool { return s.Mode != ModeRanked }

// String renders the state compactly for traces and test failures.
func (s State) String() string {
	switch s.Mode {
	case ModeRanked:
		return fmt.Sprintf("rank(%d)", s.Rank())
	case ModeReset:
		return fmt.Sprintf("reset(r=%d,d=%d,c=%d)", s.ResetCount(), s.DelayCount(), s.Coin())
	case ModeLE:
		return fmt.Sprintf("le(cnt=%d,cc=%d,done=%t,ldr=%t,c=%d)", s.LECount(), s.CoinCount(), s.LeaderDone(), s.IsLeader(), s.Coin())
	case ModeWait:
		return fmt.Sprintf("wait(%d,a=%d,c=%d)", s.Wait(), s.Alive(), s.Coin())
	case ModePhase:
		return fmt.Sprintf("phase(%d,a=%d,c=%d)", s.Phase(), s.Alive(), s.Coin())
	default:
		return fmt.Sprintf("invalid(%d)", uint8(s.Mode))
	}
}

// Canonical returns the agent's layout-independent view: mode, rank,
// ResetCount, DelayCount, LECount, CoinCount, LeaderDone, IsLeader,
// Wait, Phase, Alive and coin, in that order, with every variable the
// agent's mode does not carry reported as 0. Digests over it pin a
// trajectory across changes of State's memory layout and of the
// checkpoint codec that derives from it.
func Canonical(s *State) [12]int64 {
	v := [12]int64{0: int64(s.Mode)}
	if s.HasCoin() {
		v[11] = int64(s.Coin())
	}
	switch s.Mode {
	case ModeRanked:
		v[1] = int64(s.Rank())
	case ModeReset:
		v[2], v[3] = int64(s.ResetCount()), int64(s.DelayCount())
	case ModeLE:
		v[4], v[5] = int64(s.LECount()), int64(s.CoinCount())
		if s.LeaderDone() {
			v[6] = 1
		}
		if s.IsLeader() {
			v[7] = 1
		}
	case ModeWait:
		v[8], v[10] = int64(s.Wait()), int64(s.Alive())
	case ModePhase:
		v[9], v[10] = int64(s.Phase()), int64(s.Alive())
	}
	return v
}
