// Package proto defines the protocol descriptor: one value per
// protocol that bundles everything the engine-facing layers (the
// public facade, the experiment harness, the CLIs) need to construct,
// initialize, run, stop, and read out a protocol — constructor,
// supported initial configurations, validity predicate, incremental
// stop tracker, rank/leader projections, instrumentation hooks and the
// default interaction budget.
//
// Agent-state codecs are not written per protocol. One reflection walk
// over the state type lists its fields (layout.go), and both codecs
// derive from that list: the varint slab of checkpoints and
// distributed Assign frames (codec.go), and the fixed-width image of
// the distributed delta path.
//
// Each protocol package constructs its own Descriptor (in its desc.go)
// so the knowledge of "what this protocol provides" lives next to the
// protocol instead of being re-tabulated in every consumer; before the
// descriptor existed, the facade, the experiment generators and the
// CLIs each carried a parallel per-protocol dispatch table.
//
// The package is deliberately engine-free: it depends only on rng and
// ckpt, and Condition mirrors the engine's incremental stop-condition
// interface structurally (identical method sets convert implicitly),
// preserving the layering rule that protocol packages never import the
// engine.
package proto

import (
	"math"

	"ssrank/internal/rng"
)

// Condition is the incremental stop condition contract, mirrored from
// the engine (sim.Condition) structurally: Init is called once with
// the full configuration, Update after every interaction for each
// touched agent, and Done reports whether the condition holds. Update
// and Done must run in O(1) amortized.
type Condition[S any] interface {
	Init(states []S)
	Update(i int, states []S)
	Done() bool
}

// Descriptor describes one protocol to the engine-facing layers. S is
// the agent state type, P the concrete protocol type.
//
// Required fields: Name, Inits, New, Init, Valid, Budget, and a stop
// tracker — either Rank (the default permutation tracker is built from
// it) or Cond. Everything else is optional instrumentation. S must have
// a layout (LayoutOf): a fixed-width integer, or a struct of
// fixed-width integers, bools and structs of them; the agent codecs
// derive from it.
type Descriptor[S any, P any] struct {
	// Name is the protocol's selector string (matches the public
	// facade's Protocol constant).
	Name string

	// Inits lists the supported initial-configuration names; the
	// first entry is the default.
	Inits []string

	// SelfStabilizing reports whether the protocol converges from
	// arbitrary configurations (and hence supports fault injection).
	SelfStabilizing bool

	// New constructs the protocol for n agents. Per-protocol
	// parameters (ε, timeout factors, tunables) are bound by the
	// descriptor's constructor, so New is uniform across protocols.
	New func(n int) P

	// Init builds the named initial configuration. r is a source of
	// initialization randomness (used by "random" inits; derived from
	// the run seed under a fixed salt so runs stay deterministic).
	// Unsupported names return nil.
	Init func(p P, init string, r *rng.RNG) []S

	// Valid is the protocol's stop predicate over full configurations:
	// Snapshot.Stable, Result.Converged without an exact hit, and the
	// message network's once-per-round stop poll evaluate it.
	Valid func(states []S) bool

	// TransientStop marks a stop condition that is not absorbing: it
	// can hold at one interaction and break at the next (loose
	// leader election's uniqueness), so Valid may be false again in
	// the configuration a run stopped in, and a per-round poll can miss
	// the window. No engine reads it; tests read it to pick their
	// post-stop check.
	TransientStop bool

	// Rank extracts an agent's rank projection (0 = unranked). It
	// feeds the default permutation stop tracker and the Result rank
	// extraction.
	Rank func(s *S) int

	// Space returns the rank-space size m for the permutation tracker
	// (0 = population size). The relaxed-range protocol reports its
	// effective identifier-space size here.
	Space func(p P) int

	// Cond overrides the default permutation tracker with a
	// protocol-specific incremental stop condition equivalent to
	// Valid (the relaxed-range disjointness tracker, the loose
	// leader-count tracker).
	Cond func(p P) Condition[S]

	// CondBytes returns every byte Cond's tracker holds for p once
	// Init has seen the population, per-agent arrays included: the
	// relaxed-range tracker takes 4 B per agent and 16 B per
	// identifier of its space, which ε can make far larger than the
	// agent slab. Admission control charges them beside the slab.
	// Required when Cond is set.
	CondBytes func(p P) int64

	// Leader returns the index of the elected leader, -1 if none.
	// When nil, the rank-1 agent is the leader (the paper's output
	// function).
	Leader func(states []S) int

	// Resets returns the protocol's self-healing reset count
	// (self-stabilizing protocols only).
	Resets func(p P) int64

	// ResetBreakdown classifies the resets by cause.
	ResetBreakdown func(p P) map[string]int64

	// RandomState draws one uniformly random state from the
	// protocol's state space — the fault-injection primitive. Nil for
	// protocols whose analysis does not survive corruption.
	RandomState func(p P, r *rng.RNG) S

	// Probes lists named scalar projections over full configurations —
	// protocol-specific observables (StableRanking's mean phase
	// counter) that observation layers sample alongside the generic
	// rank projections. Names must be unique within a descriptor.
	Probes []Probe[S, P]

	// Budget returns the default interaction budget for n agents:
	// several times the expected stabilization time, computed in
	// float64 and clamped (ClampBudget) so large n cannot overflow.
	Budget func(n int) int64

	// Instr captures the protocol's mutable run instrumentation (reset
	// counters) as a flat vector of fixed length; SetInstr restores
	// one. Together with the agent slab it is the whole mutable run
	// state: the checkpoint state section (WriteState) carries it
	// after the slab. The contract that makes distribution work:
	// vectors accumulated over disjoint interaction sets sum
	// element-wise, so counters that increment on whichever process
	// executed the interaction reconcile by summation — workers report
	// absolute vectors at each barrier and the coordinator folds the
	// committed totals into the Result. Nil for protocols whose only
	// mutable state is the agent slab; set both or neither, and
	// protocols registering Resets must register these too or
	// checkpoints and distributed Results would drop their counters.
	Instr func(p P) []int64

	// SetInstr restores an instrumentation vector captured by Instr.
	SetInstr func(p P, v []int64)
}

// Probe is one named scalar projection over full configurations (see
// Descriptor.Probes). Fn must not mutate the configuration; it may
// read protocol parameters through p.
type Probe[S any, P any] struct {
	// Name labels the probe (a snapshot map key, a CSV column).
	Name string
	// Fn computes the scalar.
	Fn func(p P, states []S) float64
}

// Supports reports whether the named init is in the descriptor's init
// table.
func (d *Descriptor[S, P]) Supports(init string) bool {
	for _, name := range d.Inits {
		if name == init {
			return true
		}
	}
	return false
}

// Ranks extracts every agent's rank via the descriptor's projection.
func (d *Descriptor[S, P]) Ranks(states []S) []int {
	out := make([]int, len(states))
	for i := range states {
		out[i] = d.Rank(&states[i])
	}
	return out
}

// RankedCount returns the number of agents holding a rank.
func (d *Descriptor[S, P]) RankedCount(states []S) int {
	c := 0
	for i := range states {
		if d.Rank(&states[i]) != 0 {
			c++
		}
	}
	return c
}

// LeaderOf resolves the elected leader: the descriptor's Leader hook,
// or the first rank-1 agent (-1 if none).
func (d *Descriptor[S, P]) LeaderOf(states []S) int {
	if d.Leader != nil {
		return d.Leader(states)
	}
	for i := range states {
		if d.Rank(&states[i]) == 1 {
			return i
		}
	}
	return -1
}

// ClampBudget converts a budget computed in float64 to int64,
// saturating at MaxInt64. Budgets are products like 2000·n³ that
// overflow int64 arithmetic around n ≈ 1.7×10⁶; computing the product
// in float64 and clamping keeps the budget a usable "effectively
// unbounded" cap at any population size.
func ClampBudget(v float64) int64 {
	// float64(MaxInt64) rounds up to 2⁶³ exactly, so v ≥ that bound is
	// precisely the range where int64(v) would overflow.
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	if v < 0 {
		return 0
	}
	return int64(v)
}

// BudgetN2LogN returns n ↦ c·n²·log₂ n clamped — the default-budget
// shape of the Θ(n² log n) protocols.
func BudgetN2LogN(c float64) func(n int) int64 {
	return func(n int) int64 {
		f := float64(n)
		return ClampBudget(c * f * f * math.Log2(f))
	}
}

// BudgetN2 returns n ↦ c·n² clamped.
func BudgetN2(c float64) func(n int) int64 {
	return func(n int) int64 {
		f := float64(n)
		return ClampBudget(c * f * f)
	}
}

// BudgetN3 returns n ↦ c·n³ clamped.
func BudgetN3(c float64) func(n int) int64 {
	return func(n int) int64 {
		f := float64(n)
		return ClampBudget(c * f * f * f)
	}
}
