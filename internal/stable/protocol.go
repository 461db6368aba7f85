package stable

import (
	"fmt"
	"math"
	"sync/atomic"

	"ssrank/internal/core"
	"ssrank/internal/leaderelect"
)

// Params are the tunable constants of StableRanking. All counters scale
// with log₂ n, as in the paper's state space (Protocol 3).
type Params struct {
	// CWait is c_wait: waitCount starts at ⌈CWait·log₂ n⌉. The paper's
	// simulations use 2.
	CWait float64
	// CLive is c_live: L_max = ⌈CLive·log₂ n⌉ bounds both the liveness
	// counter of Ranking+ and the interaction budget of
	// FastLeaderElection. The paper's simulations use 4.
	CLive float64
	// RMaxFactor scales R_max = ⌈RMaxFactor·log₂ n⌉, the reset-epidemic
	// hop budget of PropagateReset.
	RMaxFactor float64
	// DMaxFactor scales D_max = ⌈DMaxFactor·log₂ n⌉, the dormancy
	// duration of PropagateReset. The paper fixes D_max = c_live·log₂ n.
	DMaxFactor float64
	// LEBudgetFactor scales FastLeaderElection's interaction budget:
	// LECount starts at ⌈LEBudgetFactor·log₂ n⌉. The paper uses L_max
	// for this too, with the proviso that the constant is "large
	// enough" (Lemma 32 wants > 100γ·log n); a budget of only
	// c_live·log₂ n loses races against the start-of-ranking epidemic
	// and causes spurious le-expired resets, so the default is 8.
	LEBudgetFactor float64
	// PaperLiteralProductive switches the unaware-leader test of
	// Ranking+ line 13 to the paper-literal ⌊n·2^{−phase}⌋ bound instead
	// of the exact f_k − f_{k+1} (DESIGN.md note 2). Ablation E8 uses
	// it; the default (false) is the exact form.
	PaperLiteralProductive bool
}

// DefaultParams mirror the constants of the paper's simulations (§VI):
// c_wait = 2 and c_live = D_max/log₂ n = 4.
func DefaultParams() Params {
	return Params{CWait: 2, CLive: 4, RMaxFactor: 4, DMaxFactor: 4, LEBudgetFactor: 8}
}

// Protocol is the self-stabilizing protocol StableRanking (Protocol 3).
//
// All per-interaction logic reads only the immutable parameters, and
// the reset counters are atomic, so Transition is safe to invoke
// concurrently on disjoint state pairs — the contract the sharded
// engine (internal/sim/shard) relies on. A Protocol instance still
// counts the resets *it* triggers, so construct one per trial
// (construction is cheap) rather than sharing across trials.
type Protocol struct {
	n      int
	phases core.Phases

	// Each bound has the width of the State field it bounds.
	waitInit int16 // ⌈c_wait·log₂ n⌉
	lMax     int32 // ⌈c_live·log₂ n⌉
	leBudget int16 // FastLeaderElection interaction budget
	rMax     int16
	dMax     int32
	coinInit int32 // ⌈log₂ n⌉ heads required by FastLeaderElection
	literal  bool

	resets         atomic.Int64
	resetsByReason [numResetReasons]atomic.Int64
}

// ResetReason classifies why a reset was triggered; the protocol keeps
// per-reason counters for diagnostics and experiments.
type ResetReason uint8

const (
	// ReasonDuplicateRank: two agents with equal ranks met
	// (Protocol 4 line 1).
	ReasonDuplicateRank ResetReason = iota
	// ReasonTwoWaiting: two waiting agents met (Protocol 4 line 2).
	ReasonTwoWaiting
	// ReasonAliveExpired: a liveness counter reached zero
	// (Protocol 4 lines 5–11).
	ReasonAliveExpired
	// ReasonLEExpired: an agent's FastLeaderElection budget ran out
	// (Protocol 5 lines 13–15).
	ReasonLEExpired
	// ReasonExternal: a reset triggered from outside the protocol
	// (fault injection, tests).
	ReasonExternal

	numResetReasons
)

// String implements fmt.Stringer.
func (r ResetReason) String() string {
	switch r {
	case ReasonDuplicateRank:
		return "duplicate-rank"
	case ReasonTwoWaiting:
		return "two-waiting"
	case ReasonAliveExpired:
		return "alive-expired"
	case ReasonLEExpired:
		return "le-expired"
	case ReasonExternal:
		return "external"
	default:
		return fmt.Sprintf("ResetReason(%d)", uint8(r))
	}
}

// New builds the protocol for n ≥ 2 agents.
func New(n int, params Params) *Protocol {
	if n < 2 {
		panic(fmt.Sprintf("stable: n must be >= 2, got %d", n))
	}
	if params.CWait <= 0 || params.CLive <= 0 || params.RMaxFactor <= 0 ||
		params.DMaxFactor <= 0 || params.LEBudgetFactor <= 0 {
		panic(fmt.Sprintf("stable: all parameter factors must be positive: %+v", params))
	}
	lg := float64(leaderelect.CeilLog2(n))
	// bound is ⌈factor·log₂ n⌉. The counters hold 0..MaxCounter (13
	// bits of the agent's word), so no bound may pass MaxCounter, where
	// it would spill into the neighbouring field.
	bound := func(param, name string, factor float64) int16 {
		v := math.Ceil(factor * lg)
		if !(v <= MaxCounter) {
			panic(fmt.Sprintf("stable: %s = %g makes %s = ⌈%g·log₂ %d⌉ = %g, beyond the 13-bit counter cap (%d)",
				param, factor, name, factor, n, v, MaxCounter))
		}
		return max(int16(v), 1)
	}
	return &Protocol{
		n:        n,
		phases:   core.NewPhases(n),
		waitInit: bound("CWait", "waitInit", params.CWait),
		lMax:     int32(bound("CLive", "L_max", params.CLive)),
		leBudget: bound("LEBudgetFactor", "the LE budget", params.LEBudgetFactor),
		rMax:     bound("RMaxFactor", "R_max", params.RMaxFactor),
		dMax:     int32(bound("DMaxFactor", "D_max", params.DMaxFactor)),
		coinInit: int32(lg),
		literal:  params.PaperLiteralProductive,
	}
}

// N returns the population size.
func (p *Protocol) N() int { return p.n }

// Phases exposes the phase geometry.
func (p *Protocol) Phases() core.Phases { return p.phases }

// WaitInit returns ⌈c_wait·log₂ n⌉.
func (p *Protocol) WaitInit() int16 { return p.waitInit }

// LMax returns ⌈c_live·log₂ n⌉.
func (p *Protocol) LMax() int32 { return p.lMax }

// LEBudget returns FastLeaderElection's initial interaction budget.
func (p *Protocol) LEBudget() int16 { return p.leBudget }

// RMax returns the reset-epidemic hop budget.
func (p *Protocol) RMax() int16 { return p.rMax }

// DMax returns the dormancy duration.
func (p *Protocol) DMax() int32 { return p.dMax }

// CoinInit returns ⌈log₂ n⌉, the consecutive heads FastLeaderElection
// requires.
func (p *Protocol) CoinInit() int32 { return p.coinInit }

// Resets returns the number of resets this instance has triggered.
func (p *Protocol) Resets() int64 { return p.resets.Load() }

// ResetsFor returns the number of resets triggered for the given
// reason.
func (p *Protocol) ResetsFor(reason ResetReason) int64 {
	if reason >= numResetReasons {
		return 0
	}
	return p.resetsByReason[reason].Load()
}

// ResetBreakdown returns a human-readable reason → count map of all
// resets triggered so far.
func (p *Protocol) ResetBreakdown() map[string]int64 {
	out := make(map[string]int64, int(numResetReasons))
	for r := ResetReason(0); r < numResetReasons; r++ {
		if c := p.resetsByReason[r].Load(); c > 0 {
			out[r.String()] = c
		}
	}
	return out
}

// LEInitial returns the FastLeaderElection start state q_{0,coin}
// (Appendix C), preserving the given coin value.
func (p *Protocol) LEInitial(coin uint8) State {
	return LEState(coin, p.leBudget, p.coinInit, false, false)
}

// InitialStates returns the canonical fresh start: every agent in the
// FastLeaderElection initial state with index-parity coins. Being
// self-stabilizing, the protocol converges from *any* configuration;
// this is merely the natural one (and the one C_LE describes).
func (p *Protocol) InitialStates() []State {
	states := make([]State, p.n)
	for i := range states {
		states[i] = p.LEInitial(uint8(i & 1))
	}
	return states
}

// TriggerReset puts s into the triggered PropagateReset state: all
// variables except the coin are forgotten, and the coin is initialized
// to 0 if the agent had none (§V-A). It is exported for fault-injection
// experiments; the protocol's own rules use triggerReset with a
// specific reason.
func (p *Protocol) TriggerReset(s *State) { p.triggerReset(s, ReasonExternal) }

func (p *Protocol) triggerReset(s *State, reason ResetReason) {
	coin := uint8(0)
	if s.HasCoin() {
		coin = s.Coin()
	}
	*s = ResetState(coin, p.rMax, p.dMax)
	// Atomic so concurrent shard workers may share the instance; resets
	// are rare, so the hot path never pays for the synchronization. The
	// totals are order-independent sums, hence still deterministic.
	p.resets.Add(1)
	p.resetsByReason[reason].Add(1)
}

// Transition implements the dispatcher of Protocol 3 with initiator u
// and responder v. It delegates to TransitionT (the body is small
// enough to inline, so callers pay no extra call layer).
func (p *Protocol) Transition(u, v *State) {
	p.TransitionT(u, v)
}

// TransitionT is the dispatcher of Protocol 3, additionally reporting
// which agents' rank projection (RankOf: the rank while ModeRanked, 0
// otherwise) changed. It is the TouchReporter capability the engine's
// touch-aware exact stopping consumes: the rank extractor is evaluated
// here, devirtualized and per dispatch branch, instead of through an
// indirect tracker call per interaction — the LE branches never touch
// ranks, the reset branch can only recruit (never mint) a rank, and
// only the main–main branch pays the full before/after comparison.
// Interactions that leave both projections unchanged — every
// interaction of a silent configuration, and the vast majority late in
// a run — report (false, false) so the tracker is never consulted.
func (p *Protocol) TransitionT(u, v *State) (uTouched, vTouched bool) {
	// Two ranked agents, almost every interaction late in a run: a
	// compare of two words. Only a duplicate rank changes anything
	// (Protocol 4 line 1, u loses its rank and v keeps the duplicate),
	// and neither agent has a coin to toggle.
	if u.w|v.w < unranked {
		if u.w == v.w {
			p.triggerReset(u, ReasonDuplicateRank)
			return true, false
		}
		return false, false
	}
	tu, tv := u.tag(), v.tag()
	switch {
	// Line 1: PropagateReset, when either agent participates in it.
	// PropagateReset recruits computing agents (a ranked one loses its
	// rank) and awakens reset agents into leader election; it never
	// creates a ranked agent, so the projection comparison reduces to
	// "left ModeRanked".
	case tu == tagReset || tv == tagReset:
		ru, rv := u.IsRanked(), v.IsRanked()
		p.propagateReset(u, v)
		uTouched = ru && !u.IsRanked()
		vTouched = rv && !v.IsRanked()

	// Lines 2–3: two leader-electing agents. FastLeaderElection moves
	// agents between ModeLE, ModeWait and ModeReset only — no ranks.
	case tu == tagLE && tv == tagLE:
		p.fastLE(u, v)

	// Lines 4–6: a leader-electing agent meeting a main-protocol agent
	// (neither is a reset agent, and only one elects) forgets its LE
	// state and joins as a phase-1 agent (no ranks).
	case tu == tagLE:
		*u = PhaseState(u.Coin(), 1, p.lMax)
	case tv == tagLE:
		*v = PhaseState(v.Coin(), 1, p.lMax)

	// Lines 7–8: both agents execute the main protocol, where ranks
	// are assigned, advanced and (on detected errors) dropped;
	// rankingPlus reports the changes from its mutation sites, so the
	// no-op majority pays nothing.
	default:
		uTouched, vTouched = p.rankingPlus(u, v)
	}

	// Lines 9–10: the responder's coin is toggled if it has one.
	v.toggleCoin()
	return uTouched, vTouched
}
