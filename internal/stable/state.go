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

// State is the per-agent state of StableRanking: one 32-bit word.
// Every variable sits at a constant shift, so no read divides. A
// ranked agent's word is its rank, with the top bit clear, so two
// ranked agents compare as two words. Every other agent has the top
// bit set, a kind selecting its branch of the paper's disjoint state
// space, the synthetic coin, and two 13-bit counters a and b:
//
//	bit    31  30–29  28    27        26          25–13       12–0
//	ranked 0   rank, in bits 30–0
//	reset  1   0      coin  —         —           ResetCount  DelayCount
//	LE     1   1      coin  IsLeader  LeaderDone  LECount     CoinCount
//	wait   1   2      coin  —         —           Wait        Alive
//	phase  1   3      coin  —         —           Phase       Alive
//
// Reads and writes go through the accessors and mode constructors
// below. The constructors zero every bit their mode does not use, so
// states are comparable with ==. A counter holds 0..MaxCounter, so the
// protocol's bounds are capped there (New).
type State struct {
	w uint32
}

// MaxCounter is the largest value a counter of an unranked agent
// holds: the cap on R_max, D_max, L_max, the LE budget and waitInit.
const MaxCounter = 1<<counterBits - 1

// The word's layout.
const (
	unranked    uint32 = 1 << 31 // clear in exactly the ranked words
	tagShift           = 29      // the top three bits: 0–3 ranked, 4 + kind unranked
	coinBit     uint32 = 1 << 28
	isLeaderBit uint32 = 1 << 27
	doneBit     uint32 = 1 << 26
	counterBits        = 13
	aShift             = counterBits
	counterMask uint32 = MaxCounter
)

// The tags of the unranked kinds: the top bit and the kind.
const (
	tagReset uint32 = 4 + iota
	tagLE
	tagWait
	tagPhase
)

// unrankedWord assembles an unranked agent's word; a and b must lie in
// [0, MaxCounter].
func unrankedWord(tag uint32, coin uint8, a, b int32) State {
	return State{tag<<tagShift | uint32(coin&1)<<28 | uint32(a)<<aShift | uint32(b)}
}

// Ranked returns a ranked-agent state; rank must lie in [0, 2³¹).
func Ranked(rank int32) State { return State{uint32(rank)} }

// ResetState returns a PropagateReset state (ModeReset).
func ResetState(coin uint8, resetCount int16, delayCount int32) State {
	return unrankedWord(tagReset, coin, int32(resetCount), delayCount)
}

// LEState returns a FastLeaderElection state (ModeLE).
func LEState(coin uint8, leCount int16, coinCount int32, leaderDone, isLeader bool) State {
	s := unrankedWord(tagLE, coin, int32(leCount), coinCount)
	if leaderDone {
		s.w |= doneBit
	}
	if isLeader {
		s.w |= isLeaderBit
	}
	return s
}

// WaitState returns a waiting main-protocol state (ModeWait).
func WaitState(coin uint8, wait int16, alive int32) State {
	return unrankedWord(tagWait, coin, int32(wait), alive)
}

// PhaseState returns an unranked main-protocol phase state
// (ModePhase).
func PhaseState(coin uint8, phase int16, alive int32) State {
	return unrankedWord(tagPhase, coin, int32(phase), alive)
}

// tag is the word's top three bits: below 4 for a ranked agent, else
// one of tagReset, tagLE, tagWait, tagPhase.
func (s State) tag() uint32 { return s.w >> tagShift }

// Mode returns the branch of the state space the agent is in.
func (s State) Mode() Mode {
	if t := s.tag(); t >= tagReset {
		return Mode(t-tagReset) + ModeReset
	}
	return ModeRanked
}

func (s State) a() int32 { return int32(s.w >> aShift & counterMask) }
func (s State) b() int32 { return int32(s.w & counterMask) }

// Coin is the synthetic coin, present for every mode except
// ModeRanked; the dispatcher toggles it whenever the agent is the
// responder.
func (s State) Coin() uint8 { return uint8(s.w >> 28 & 1) }

// Rank ∈ [1, n] — ModeRanked.
func (s State) Rank() int32 { return int32(s.w) }

// ResetCount ∈ [0, R_max] — ModeReset.
func (s State) ResetCount() int16 { return int16(s.a()) }

// DelayCount ∈ [0, D_max] — ModeReset.
func (s State) DelayCount() int32 { return s.b() }

// LECount ∈ [0, L_max] — ModeLE (Protocol 5).
func (s State) LECount() int16 { return int16(s.a()) }

// CoinCount ∈ [0, ⌈log₂ n⌉] — ModeLE.
func (s State) CoinCount() int32 { return s.b() }

// LeaderDone reports that the agent's lottery is decided — ModeLE.
func (s State) LeaderDone() bool { return s.w&doneBit != 0 }

// IsLeader reports that the agent won its lottery — ModeLE.
func (s State) IsLeader() bool { return s.w&isLeaderBit != 0 }

// Wait ∈ [1, ⌈c_wait·log₂ n⌉] — ModeWait.
func (s State) Wait() int16 { return int16(s.a()) }

// Phase ∈ [1, ⌈log₂ n⌉] — ModePhase.
func (s State) Phase() int16 { return int16(s.a()) }

// Alive ∈ [1, L_max] — both unranked main modes.
func (s State) Alive() int32 { return s.b() }

// The setters of the variables transitions change in place; a change
// of mode replaces the whole state through a constructor instead. A
// counter setter's value must lie in [0, MaxCounter]: the transitions
// test a decremented counter before they store it.
func (s *State) setA(v int32)          { s.w = s.w&^(counterMask<<aShift) | uint32(v)<<aShift }
func (s *State) setB(v int32)          { s.w = s.w&^counterMask | uint32(v) }
func (s *State) setRank(rank int32)    { s.w = uint32(rank) }
func (s *State) setResetCount(c int16) { s.setA(int32(c)) }
func (s *State) setDelayCount(c int32) { s.setB(c) }
func (s *State) setLECount(c int16)    { s.setA(int32(c)) }
func (s *State) setCoinCount(c int32)  { s.setB(c) }
func (s *State) setLeaderDone()        { s.w |= doneBit }
func (s *State) setIsLeader()          { s.w |= isLeaderBit }
func (s *State) setWait(w int16)       { s.setA(int32(w)) }
func (s *State) setPhase(phase int16)  { s.setA(int32(phase)) }
func (s *State) setAlive(alive int32)  { s.setB(alive) }

// toggleCoin flips the coin of an agent that has one and leaves a
// ranked agent alone, without a branch.
func (s *State) toggleCoin() { s.w ^= s.w >> 31 << 28 }

// IsRanked reports whether the agent holds a rank (ModeRanked).
func (s *State) IsRanked() bool { return s.w < unranked }

// IsUnrankedMain reports whether the agent is a main-protocol agent
// without a rank (waiting or phase), i.e. carries coin and aliveCount.
func (s *State) IsUnrankedMain() bool { return s.tag() >= tagWait }

// IsMain reports whether the agent executes the main protocol Ranking+
// (X(v) ∈ Q_Main in the paper's notation).
func (s *State) IsMain() bool { return s.w < unranked || s.tag() >= tagWait }

// IsPropagating reports whether the agent is a propagating reset agent.
func (s *State) IsPropagating() bool { return s.tag() == tagReset && s.a() > 0 }

// IsDormant reports whether the agent is a dormant reset agent.
func (s *State) IsDormant() bool { return s.tag() == tagReset && s.a() == 0 }

// HasCoin reports whether the state carries a synthetic coin.
func (s *State) HasCoin() bool { return s.w >= unranked }

// String renders the state compactly for traces and test failures.
func (s State) String() string {
	switch s.Mode() {
	case ModeRanked:
		return fmt.Sprintf("rank(%d)", s.Rank())
	case ModeReset:
		return fmt.Sprintf("reset(r=%d,d=%d,c=%d)", s.ResetCount(), s.DelayCount(), s.Coin())
	case ModeLE:
		return fmt.Sprintf("le(cnt=%d,cc=%d,done=%t,ldr=%t,c=%d)", s.LECount(), s.CoinCount(), s.LeaderDone(), s.IsLeader(), s.Coin())
	case ModeWait:
		return fmt.Sprintf("wait(%d,a=%d,c=%d)", s.Wait(), s.Alive(), s.Coin())
	default:
		return fmt.Sprintf("phase(%d,a=%d,c=%d)", s.Phase(), s.Alive(), s.Coin())
	}
}

// Canonical returns the agent's layout-independent view: mode, rank,
// ResetCount, DelayCount, LECount, CoinCount, LeaderDone, IsLeader,
// Wait, Phase, Alive and coin, in that order, with every variable the
// agent's mode does not carry reported as 0. Digests over it pin a
// trajectory across changes of State's memory layout and of the
// checkpoint codec that derives from it.
func Canonical(s *State) [12]int64 {
	v := [12]int64{0: int64(s.Mode())}
	if s.HasCoin() {
		v[11] = int64(s.Coin())
	}
	switch s.Mode() {
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
