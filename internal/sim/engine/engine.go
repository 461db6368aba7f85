// Package engine is the one engine layer. It builds a run of a
// protocol descriptor on the engine the run's knobs select and drives
// it through one value. The public facade and the experiment harness
// both build their runs here, so a figure and a Run with the same knobs
// pick their engine by one rule: the message network when the knobs
// name a scheduler or faults, the sharded engine above one resolved
// shard, the serial engine otherwise. Stops are exact on the in-place
// engines (sim.CondLoop, shard.ExactLoop, each held across calls) and
// polled once per round on the message network.
package engine

import (
	"fmt"

	"ssrank/internal/ckpt"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/sim/msgnet"
	"ssrank/internal/sim/shard"
)

// Knobs are the engine settings of one run. Workers bounds the shard
// worker pool (< 1 means one per CPU; the message network delivers
// serially and ignores it) and never changes a trajectory; every other
// field is part of the trajectory's identity.
type Knobs struct {
	// Seed drives the scheduler and the message network's fault fates;
	// the init randomness is drawn from rng.New(Seed ^ InitSalt).
	Seed, InitSalt uint64
	// Shards is the requested in-place shard count, shard.Auto
	// included.
	Shards  int
	Workers int
	// Scheduler names the message network's contact graph; "" with
	// zero Faults keeps the in-place engines.
	Scheduler string
	Faults    msgnet.Faults
}

// Network reports whether the knobs select the message network: a
// named scheduler (an explicit uniform one included) or any fault.
func (k Knobs) Network() bool { return k.Scheduler != "" || !k.Faults.None() }

// ResolveShards is the in-place shard count a run of n agents executes
// with: the sentinel shard.Auto expanded against n and this machine's
// core count, then clamped to [1, n/2] (every shard needs two agents).
// A resolved count resolves to itself.
func ResolveShards(shards, n int) int {
	if shards == shard.Auto {
		shards = shard.AutoShards(n, 0)
	}
	return max(1, min(shards, n/2))
}

// Engine is one run on the engine its knobs selected. Run, States and
// Steps mean what sim.Poll needs on every engine; on the message
// network Run(k) executes whole rounds until k more interactions were
// delivered.
type Engine[S any, P sim.TouchReporter[S]] struct {
	runner[S]
	d proto.Descriptor[S, P]
	p P
}

// runner is what differs between the engines.
type runner[S any] interface {
	Run(k int64)
	States() []S
	Steps() int64
	// Rounds is the message network's round counter, 0 in place.
	Rounds() int64
	// RunUntilStable executes interactions until the descriptor's stop
	// condition holds or target interactions were executed. It reports
	// whether the condition holds, with its exact hitting time when the
	// engine pins one (-1 otherwise, and always on the message
	// network). budget is the caller's whole budget (target ≤ budget);
	// only the message network's round backstop reads it.
	RunUntilStable(target, budget int64) (hit int64, stable bool)
	// resync marks the states as changed outside the exact stop loop.
	resync()
	// streams returns the checkpoint kind and the writer of its
	// stream section, or an error if the engine cannot checkpoint.
	streams() (kind uint64, write func(*ckpt.Writer), err error)
	restore(st streamState) error
}

// New builds a run of d over n agents from the named initial
// configuration on the engine k selects.
func New[S any, P sim.TouchReporter[S]](d proto.Descriptor[S, P], n int, init string, k Knobs) (*Engine[S, P], error) {
	p := d.New(n)
	states, err := Init(d, p, init, k)
	if err != nil {
		return nil, err
	}
	return Start(d, p, states, k)
}

// Init builds the named initial configuration for p, drawing any
// randomness from rng.New(k.Seed ^ k.InitSalt).
func Init[S any, P any](d proto.Descriptor[S, P], p P, init string, k Knobs) ([]S, error) {
	states := d.Init(p, init, rng.New(k.Seed^k.InitSalt))
	if states == nil {
		return nil, fmt.Errorf("protocol %q supports inits %v, got %q", d.Name, d.Inits, init)
	}
	return states, nil
}

// Start puts states, a configuration of p, on the engine k selects;
// the engine owns states afterwards. New starts a named init here, and
// the experiment harness starts its hand-built configurations here
// (custom parameters, dead configurations, fault probes).
func Start[S any, P sim.TouchReporter[S]](d proto.Descriptor[S, P], p P, states []S, k Knobs) (*Engine[S, P], error) {
	e := &Engine[S, P]{d: d, p: p}
	switch s := ResolveShards(k.Shards, len(states)); {
	case k.Network():
		sched, err := msgnet.NewScheduler(k.Scheduler, len(states), 0, k.Seed)
		if err != nil {
			return nil, err
		}
		cfg := msgnet.Config{Sched: sched, Faults: k.Faults, Seed: k.Seed}
		e.runner = network[S, P]{msgnet.New[S](p, states, cfg), d.Valid}
	case s > 1:
		r := shard.New[S](p, states, k.Seed, s, k.Workers)
		e.runner = sharded[S, P]{r, shard.NewExactLoop(r, sim.DescCond(d, p))}
	default:
		r := sim.New[S](p, states, k.Seed)
		e.runner = serial[S, P]{r, sim.NewCondLoop(r, sim.DescCond(d, p))}
	}
	return e, nil
}

// Protocol returns the run's protocol instance, instrumentation
// counters included.
func (e *Engine[S, P]) Protocol() P { return e.p }

// Resync tells the engine that its states were changed through States
// (a fault injection). The in-place engines hold their stop tracker
// across RunUntilStable calls, so a run advanced in slices pays no
// O(n) rescan per slice; after Resync the next call rescans. Run
// resyncs on its own.
func (e *Engine[S, P]) Resync() { e.resync() }

// exact converts an exact stop loop's outcome.
func exact(hit int64, err error) (int64, bool) {
	if err != nil {
		return -1, false
	}
	return hit, true
}

type serial[S any, P sim.TouchReporter[S]] struct {
	*sim.Runner[S, P]
	stop *sim.CondLoop[S, P]
}

func (serial[S, P]) Rounds() int64 { return 0 }

func (e serial[S, P]) Run(k int64) {
	e.stop.Resync()
	e.Runner.Run(k)
}

func (e serial[S, P]) RunUntilStable(target, _ int64) (int64, bool) {
	return exact(e.stop.Run(target))
}

func (e serial[S, P]) resync() { e.stop.Resync() }

// sharded control is batch-granular, the last batch of every call cut
// at the call's target, so its trajectory is a pure function of (seed,
// shard count, cut points); cuts at multiples of the batch period keep
// an uninterrupted run's barrier schedule.
type sharded[S any, P sim.TouchReporter[S]] struct {
	*shard.Runner[S, P]
	stop *shard.ExactLoop[S, P]
}

func (sharded[S, P]) Rounds() int64 { return 0 }

func (e sharded[S, P]) Run(k int64) {
	e.stop.Resync()
	e.Runner.Run(k)
}

func (e sharded[S, P]) RunUntilStable(target, _ int64) (int64, bool) {
	return exact(e.stop.Run(target))
}

func (e sharded[S, P]) resync() { e.stop.Resync() }

// network goes through msgnet.Network.RunUntil on every call, so every
// call has one round backstop: the rounds it executes are bounded by
// the interactions it has left.
type network[S any, P sim.TouchReporter[S]] struct {
	*msgnet.Network[S, P]
	valid func([]S) bool
}

// Run stops after k more interactions, or after k rounds in regimes
// that deliver almost nothing (a drop probability of 1).
func (e network[S, P]) Run(k int64) {
	e.RunUntil(func([]S) bool { return false }, e.Steps()+k)
}

// RunUntilStable polls the condition once per round, with the target
// in the polled predicate and the rest of the budget as the backstop.
func (e network[S, P]) RunUntilStable(target, budget int64) (int64, bool) {
	stable := false
	e.RunUntil(func(states []S) bool {
		stable = e.valid(states)
		return stable || e.Steps() >= target
	}, budget)
	return -1, stable
}

// resync has nothing to do: the message network polls its predicate.
func (network[S, P]) resync() {}
