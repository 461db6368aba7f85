// Package sim implements the population-protocol execution model used
// throughout this repository.
//
// Model (paper §III): a population of n agents, each holding a state from
// a protocol-specific state space. Time proceeds in discrete steps; in
// every step an ordered pair (initiator, responder) of distinct agents is
// chosen uniformly at random and both agents update their states
// according to a common deterministic transition function.
//
// All protocol randomness is part of the agent state (the synthetic
// coin), exactly as in the paper, so a run is a pure function of
// (initial configuration, scheduler seed).
//
// The engine is built for throughput: the Runner is generic over the
// concrete protocol type, so transitions dispatch without an interface
// call in the hot loop, and the scheduler consumes agent pairs from a
// rng.PairBatch, which amortizes random-number generation across
// batches of 512 interactions.
package sim

import (
	"errors"
	"fmt"

	"ssrank/internal/rng"
	"ssrank/internal/sim/slab"
)

// Protocol is a population protocol over state type S.
//
// Transition applies a single interaction, mutating the initiator u and
// responder v in place. Implementations must be deterministic: any
// randomness a protocol needs must live in S (e.g. a synthetic coin).
type Protocol[S any] interface {
	Transition(u, v *S)
}

// ErrBudgetExhausted is returned by the stop loops (Poll, RunUntilCondT)
// when the stop condition did not hold within the interaction budget.
var ErrBudgetExhausted = errors.New("sim: interaction budget exhausted before stop condition held")

// Runner executes a protocol over a concrete population. It is generic
// over both the state type S and the concrete protocol type P, so the
// per-interaction Transition call is devirtualized: sim.New infers P
// from its argument and call sites keep writing sim.New[S](p, ...).
//
// The zero value is not usable; construct with New. Runner is not safe
// for concurrent use.
// The Runner deliberately does not retain the underlying *rng.RNG:
// the PairBatch draws ahead of consumption, so any other consumer of
// the same generator would interleave with prefetched pairs and break
// the deterministic pair stream.
type Runner[S any, P Protocol[S]] struct {
	proto  P
	states []S
	pairs  *rng.PairBatch
	steps  int64
	// fetch is set when the slab is past slab.FetchBytes: every window's
	// agent lines are then fetched (slab.Fetch) into sink before the
	// window's transitions.
	fetch bool
	sink  uint8
}

// New returns a Runner over the given initial configuration. The states
// slice is owned by the Runner afterwards and must not be mutated by the
// caller (it may be relocated into a cache-line-aligned slab — read it
// back via States). It panics if fewer than two agents are supplied,
// since the pairwise interaction model is undefined below n = 2.
func New[S any, P Protocol[S]](p P, states []S, seed uint64) *Runner[S, P] {
	if len(states) < 2 {
		panic(fmt.Sprintf("sim: population needs at least 2 agents, got %d", len(states)))
	}
	return &Runner[S, P]{
		proto:  p,
		states: slab.Align(states),
		pairs:  rng.NewPairBatch(rng.New(seed), len(states)),
		fetch:  slab.Fetches[S](len(states)),
	}
}

// N returns the population size.
func (r *Runner[S, P]) N() int { return len(r.states) }

// Steps returns the number of interactions executed so far.
func (r *Runner[S, P]) Steps() int64 { return r.steps }

// States returns the live configuration. The caller must treat it as
// read-only; use Snapshot for a mutable copy.
func (r *Runner[S, P]) States() []S { return r.states }

// Snapshot returns a copy of the current configuration.
func (r *Runner[S, P]) Snapshot() []S {
	out := make([]S, len(r.states))
	copy(out, r.states)
	return out
}

// SetState overwrites the state of agent i. It is intended for fault
// injection and adversarial initialization in experiments and tests.
func (r *Runner[S, P]) SetState(i int, s S) { r.states[i] = s }

// Step executes exactly one interaction.
func (r *Runner[S, P]) Step() {
	a, b := r.pairs.Next()
	r.proto.Transition(&r.states[a], &r.states[b])
	r.steps++
}

// Run executes k interactions.
func (r *Runner[S, P]) Run(k int64) {
	states := r.states
	for k > 0 {
		as, bs := r.pairs.Window()
		if int64(len(as)) > k {
			as, bs = as[:k], bs[:k]
		}
		r.fetchWindow(as, bs)
		for i, a := range as {
			r.proto.Transition(&states[a], &states[bs[i]])
		}
		r.pairs.Advance(len(as))
		r.steps += int64(len(as))
		k -= int64(len(as))
	}
}

// fetchWindow fetches the lines of a window's agents when the slab is
// past the fetch gate.
func (r *Runner[S, P]) fetchWindow(as, bs []int32) {
	if r.fetch {
		r.sink ^= slab.Fetch(r.states, as) ^ slab.Fetch(r.states, bs)
	}
}

// RunPairs executes an explicit schedule of ordered (initiator,
// responder) pairs instead of drawing them uniformly. Self-stabilizing
// protocols are analyzed under the uniform scheduler, but their
// *closure* property must hold under every schedule — which is what
// explicit schedules let tests check. It panics on an out-of-range or
// degenerate pair.
func (r *Runner[S, P]) RunPairs(pairs [][2]int) {
	n := len(r.states)
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		if a == b || a < 0 || b < 0 || a >= n || b >= n {
			panic(fmt.Sprintf("sim: invalid scheduled pair (%d, %d) for n=%d", a, b, n))
		}
		r.proto.Transition(&r.states[a], &r.states[b])
		r.steps++
	}
}

// AllOrderedPairs returns every ordered pair of distinct indices below
// n — the exhaustive one-round schedule used by closure tests.
func AllOrderedPairs(n int) [][2]int {
	out := make([][2]int, 0, n*(n-1))
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// Poll is the one polled loop, for predicates that have no incremental
// tracker. It drives either in-place runner (Runner or shard.Runner)
// through its Run, States and Steps methods. It calls f once at the
// start and after every `every` interactions (values < 1 mean every n
// interactions; the last chunk is cut off at maxSteps) and returns the
// step of the first call that returned true. If no call does within
// maxSteps interactions, it returns the final step and
// ErrBudgetExhausted. f doubles as the observer of the paper's
// time-series figures: it sees every sample, the last one included.
//
// Predicates with a tracker run through the exact loops instead
// (RunUntilCondT, shard.Runner.RunUntilExact), which stop at the
// first satisfying interaction rather than at the next poll.
func Poll[S any](r interface {
	Run(k int64)
	States() []S
	Steps() int64
}, every, maxSteps int64, f func(steps int64, states []S) bool) (int64, error) {
	if every < 1 {
		every = int64(len(r.States()))
	}
	if f(r.Steps(), r.States()) {
		return r.Steps(), nil
	}
	for r.Steps() < maxSteps {
		r.Run(min(every, maxSteps-r.Steps()))
		if f(r.Steps(), r.States()) {
			return r.Steps(), nil
		}
	}
	return r.Steps(), ErrBudgetExhausted
}
