package ssrank

import (
	"fmt"
	"math"

	"ssrank/internal/ckpt"
	"ssrank/internal/faults"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/sim/engine"
)

// Snapshot is one observation of a Simulation: the derived quantities
// a probe or dashboard wants, extracted through the protocol's
// descriptor at a point in time.
type Snapshot struct {
	// Interactions is the number of interactions executed when the
	// snapshot was taken.
	Interactions int64
	// Ranks holds each agent's current rank (0 = unranked; leader bit
	// for Loose).
	Ranks []int
	// RankedCount is the number of agents currently holding a rank.
	RankedCount int
	// Stable reports whether the configuration currently satisfies
	// the protocol's stop condition.
	Stable bool
	// Leader is the index of the rank-1 agent, or -1.
	Leader int
	// Resets is the protocol's cumulative self-healing reset count.
	Resets int64
	// Rounds is the number of communication rounds executed when the
	// snapshot was taken — message-network simulations only (0 on the
	// in-place engines, mirroring Result.Rounds).
	Rounds int64
	// Probes holds the protocol's registered named observables
	// (StableRanking's "mean_phase"), nil for protocols that register
	// none.
	Probes map[string]float64
}

// Simulation is a stepwise handle on any registered protocol: run a
// while, inspect, corrupt, keep running — the API for fault-injection
// demos, live exploration, and checkpointable long runs. The engine
// follows the normalized Config exactly as Run does: the serial engine
// when the config resolves to one shard, the sharded engine above that
// (stepping is then applied in barrier-synchronized batches, so the
// trajectory additionally depends on where Step calls cut batches —
// stepping in multiples of the engine's batch period keeps it on
// Run's trajectory), or the round-based message network when the
// Config selects a Scheduler or non-zero Faults, in which case
// stepping is round-granular (interaction counts overshoot targets by
// up to one round), RunUntilStable stops are polled, not exact, and
// the simulation is not checkpointable.
type Simulation struct {
	desc  *Descriptor
	cfg   Config
	h     simHandle
	fault *rng.RNG
}

// NewSimulation starts a population described by cfg (protocol, init,
// seed, ε, shard count — MaxInteractions is ignored; budgets are per
// RunUntilStable call).
func NewSimulation(cfg Config) (*Simulation, error) {
	d, cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	h, err := d.newSim(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{desc: d, cfg: cfg, h: h, fault: rng.New(cfg.Seed ^ 0xfa017)}, nil
}

// Protocol returns the protocol this simulation runs.
func (s *Simulation) Protocol() Protocol { return s.desc.Protocol }

// Config returns the canonical configuration the simulation executes
// (Config.Normalized of the Config it was built from).
func (s *Simulation) Config() Config { return s.cfg }

// Result assembles the run's current outcome in Run's terms: ranks,
// interaction count, convergence, and the canonical Config that
// reproduces the run. After a RunUntilStable or Observe call that hit
// the stop condition on an in-place engine, Interactions is the exact
// hitting time and Exact is true, matching Run byte for byte; after
// manual stepping or fault injection the count is the engine position
// and Exact is false even if the configuration happens to be stable.
func (s *Simulation) Result() Result { return s.h.result() }

// Descriptor returns the registered descriptor of the protocol this
// simulation runs (the caller's own copy, see Describe).
func (s *Simulation) Descriptor() *Descriptor { return s.desc.clone() }

// N returns the population size.
func (s *Simulation) N() int { return s.h.n() }

// Step executes k interactions.
func (s *Simulation) Step(k int64) { s.h.step(k) }

// RunUntilStable executes interactions until the protocol's stop
// condition holds, up to maxInteractions (0 = the protocol's default
// budget on top of the interactions already executed). It evaluates
// the condition through the protocol's incremental tracker, so it
// stops at the exact hitting time. It reports whether the population
// stabilized.
func (s *Simulation) RunUntilStable(maxInteractions int64) bool {
	if maxInteractions == 0 {
		maxInteractions = s.defaultCap()
	}
	return s.h.runUntilStable(maxInteractions)
}

// defaultCap is the protocol's default budget on top of the
// interactions already executed, saturating instead of overflowing
// when the registered budget is already clamped to MaxInt64.
func (s *Simulation) defaultCap() int64 {
	done := s.h.interactions()
	budget := s.desc.DefaultBudget(s.h.n())
	if budget > math.MaxInt64-done {
		return math.MaxInt64
	}
	return done + budget
}

// Observe executes interactions until the stop condition holds or
// maxInteractions is reached (0 = the default budget on top of the
// interactions already executed), invoking obs once at the start and
// once at the end of every window of `every` interactions (< 1 =
// every n) on every engine, quiet windows included: the probes and
// the reset count can move while the ranks stand still. Each window
// runs until stable, so the last snapshot is taken at the stop — the
// exact hitting time on the in-place engines, the first stable round
// on the message network — or at the budget; on the message network a
// window its round backstop cuts short (a starved fault regime) ends
// the series too. It reports whether the population stabilized.
func (s *Simulation) Observe(every, maxInteractions int64, obs func(Snapshot)) bool {
	if maxInteractions == 0 {
		maxInteractions = s.defaultCap()
	}
	s.h.observe(every, maxInteractions, obs)
	return s.h.stable()
}

// Snapshot captures the current configuration's derived quantities.
func (s *Simulation) Snapshot() Snapshot { return s.h.snapshot() }

// Interactions returns the number of interactions executed so far.
func (s *Simulation) Interactions() int64 { return s.h.interactions() }

// Stable reports whether the current configuration satisfies the
// protocol's stop condition.
func (s *Simulation) Stable() bool { return s.h.stable() }

// Ranks returns each agent's current rank, 0 for unranked agents.
func (s *Simulation) Ranks() []int { return s.h.ranks() }

// RankedCount returns the number of currently ranked agents.
func (s *Simulation) RankedCount() int { return s.h.rankedCount() }

// Leader returns the index of the rank-1 agent, or -1.
func (s *Simulation) Leader() int { return s.h.leader() }

// Resets returns the number of self-healing resets triggered so far
// (0 for protocols without reset instrumentation).
func (s *Simulation) Resets() int64 { return s.h.resets() }

// ResetBreakdown classifies the resets by cause (nil for protocols
// without a breakdown).
func (s *Simulation) ResetBreakdown() map[string]int64 { return s.h.resetBreakdown() }

// Corrupt overwrites k uniformly chosen agents with arbitrary states
// from the protocol's state space — a transient fault burst.
// Self-stabilizing protocols re-stabilize from it (that is their
// defining property); protocols without a registered fault-injection
// primitive return an error.
func (s *Simulation) Corrupt(k int) error {
	if k < 0 || k > s.h.n() {
		return fmt.Errorf("ssrank: cannot corrupt %d of %d agents", k, s.h.n())
	}
	return s.h.corrupt(k, s.fault)
}

// Swap exchanges the states of k uniformly chosen disjoint agent
// pairs — a transient fault that preserves the multiset of states
// (a valid ranking stays a valid ranking, merely re-homed), useful as
// a control against Corrupt. Every protocol supports it: population
// protocols are anonymous, so a state exchange keeps the
// configuration reachable. It errors if 2k exceeds the population.
func (s *Simulation) Swap(k int) error {
	if k < 0 || 2*k > s.h.n() {
		return fmt.Errorf("ssrank: cannot swap %d pairs among %d agents", k, s.h.n())
	}
	s.h.swap(k, s.fault)
	return nil
}

// Duplicate copies the state of one uniformly chosen agent over
// another — the canonical transient fault for ranking protocols (it
// creates a duplicate rank when both agents are ranked) — and returns
// the (source, target) indices. Like Corrupt it is only offered for
// self-stabilizing protocols: the others give no recovery guarantee,
// so a duplicated state can wedge them permanently.
func (s *Simulation) Duplicate() (src, dst int, err error) {
	return s.h.duplicate(s.fault)
}

// simHandle is the type-erased surface of the generic driver, the one
// implementation behind Run, Simulation and ResumeSimulation.
type simHandle interface {
	n() int
	step(k int64)
	runUntilStable(maxSteps int64) bool
	observe(every, maxSteps int64, obs func(Snapshot))
	snapshot() Snapshot
	interactions() int64
	stable() bool
	ranks() []int
	rankedCount() int
	leader() int
	resets() int64
	resetBreakdown() map[string]int64
	corrupt(k int, r *rng.RNG) error
	swap(k int, r *rng.RNG)
	duplicate(r *rng.RNG) (src, dst int, err error)
	result() Result
	marshal(w *ckpt.Writer) error
}

// driver is the generic driver behind every facade entry point,
// instantiated per protocol from its descriptor. It drives the engine
// internal/sim/engine built for the normalized Config, as the
// experiment harness does, and reads everything else through the
// descriptor. hit remembers the exact hitting time of the last
// uninterrupted stop-condition run (-1 otherwise): manual stepping and
// fault injection invalidate it, since they change the trajectory the
// hit was exact for.
type driver[S any, P sim.TouchReporter[S]] struct {
	d   proto.Descriptor[S, P]
	p   P
	cfg Config
	eng *engine.Engine[S, P]
	hit int64
}

// startDriver builds the configured initial configuration on the
// engine the normalized Config selects.
func startDriver[S any, P sim.TouchReporter[S]](cfg Config, d proto.Descriptor[S, P]) (*driver[S, P], error) {
	eng, err := engine.New(d, cfg.N, string(cfg.Init), cfg.knobs())
	if err != nil {
		return nil, fmt.Errorf("ssrank: %w", err)
	}
	return &driver[S, P]{d: d, p: eng.Protocol(), cfg: cfg, eng: eng, hit: -1}, nil
}

func (s *driver[S, P]) n() int { return len(s.eng.States()) }

func (s *driver[S, P]) step(k int64) {
	s.hit = -1
	s.eng.Run(k)
}

func (s *driver[S, P]) runUntilStable(maxSteps int64) bool {
	return s.runUntil(maxSteps, maxSteps)
}

func (s *driver[S, P]) runUntil(target, budget int64) bool {
	hit, ok := s.eng.RunUntilStable(target, budget)
	if ok {
		s.hit = hit
	}
	return ok
}

// observe samples at the start and after every window of `every`
// interactions, each window run until stable to its end, so a
// mid-window hit ends the series at the hitting time. Window ends cut
// sharded batches, so — as with Step — an observed sharded trajectory
// matches Run's only when `every` is a multiple of the batch period. A
// window the message network's round backstop cut short ends the
// series.
func (s *driver[S, P]) observe(every, maxSteps int64, obs func(Snapshot)) {
	if every < 1 {
		every = int64(s.n())
	}
	obs(s.snapshot())
	for s.eng.Steps() < maxSteps {
		next := maxSteps
		if every < maxSteps-s.eng.Steps() {
			next = s.eng.Steps() + every
		}
		if s.runUntil(next, maxSteps) {
			obs(s.snapshotAt(s.hit))
			return
		}
		obs(s.snapshot())
		if s.eng.Steps() < next {
			return
		}
	}
}

func (s *driver[S, P]) snapshot() Snapshot { return s.snapshotAt(-1) }

// snapshotAt extracts a Snapshot through the descriptor, stamped with
// interaction count at (the engine position when at < 0).
func (s *driver[S, P]) snapshotAt(at int64) Snapshot {
	if at < 0 {
		at = s.eng.Steps()
	}
	states := s.eng.States()
	snap := Snapshot{
		Interactions: at,
		Ranks:        s.d.Ranks(states),
		RankedCount:  s.d.RankedCount(states),
		Stable:       s.d.Valid(states),
		Leader:       s.d.LeaderOf(states),
		Resets:       s.resets(),
		Rounds:       s.eng.Rounds(),
	}
	if len(s.d.Probes) > 0 {
		snap.Probes = make(map[string]float64, len(s.d.Probes))
		for _, pr := range s.d.Probes {
			snap.Probes[pr.Name] = pr.Fn(s.p, states)
		}
	}
	return snap
}

func (s *driver[S, P]) interactions() int64 { return s.eng.Steps() }
func (s *driver[S, P]) stable() bool        { return s.d.Valid(s.eng.States()) }
func (s *driver[S, P]) ranks() []int        { return s.d.Ranks(s.eng.States()) }
func (s *driver[S, P]) rankedCount() int    { return s.d.RankedCount(s.eng.States()) }
func (s *driver[S, P]) leader() int         { return s.d.LeaderOf(s.eng.States()) }

func (s *driver[S, P]) resets() int64 {
	if s.d.Resets == nil {
		return 0
	}
	return s.d.Resets(s.p)
}

func (s *driver[S, P]) resetBreakdown() map[string]int64 {
	if s.d.ResetBreakdown == nil {
		return nil
	}
	return s.d.ResetBreakdown(s.p)
}

// corrupt overwrites k uniformly chosen agents with random states via
// the descriptor's fault-injection primitive, erroring for protocols
// that register none.
func (s *driver[S, P]) corrupt(k int, r *rng.RNG) error {
	if s.d.RandomState == nil {
		return fmt.Errorf("ssrank: protocol %q has no fault-injection primitive (it is not self-stabilizing)", s.d.Name)
	}
	s.hit = -1
	faults.Corrupt(s.eng.States(), k, r, func(rr *rng.RNG) S { return s.d.RandomState(s.p, rr) })
	return nil
}

func (s *driver[S, P]) swap(k int, r *rng.RNG) {
	s.hit = -1
	faults.Swap(s.eng.States(), k, r)
}

// duplicate copies one uniformly chosen agent's state over another,
// gated — like corrupt — on the protocol being self-stabilizing, since
// only those guarantee recovery.
func (s *driver[S, P]) duplicate(r *rng.RNG) (int, int, error) {
	if !s.d.SelfStabilizing {
		return 0, 0, fmt.Errorf("ssrank: protocol %q is not self-stabilizing, duplicating a state can wedge it permanently", s.d.Name)
	}
	s.hit = -1
	src, dst := faults.Duplicate(s.eng.States(), r)
	return src, dst, nil
}

func (s *driver[S, P]) result() Result {
	return descResult(s.d, s.p, s.cfg, s.eng.States(), s.eng.Steps(), s.eng.Rounds(), s.hit)
}

func (s *driver[S, P]) marshal(w *ckpt.Writer) error {
	if err := s.eng.Checkpoint(w, s.hit); err != nil {
		return fmt.Errorf("ssrank: %w", err)
	}
	return nil
}

// descResult assembles a Result from a run's current state — the one
// Result path of Run, Simulation, ResumeSimulation and RunDistributed.
// hit is the exact hitting time recorded by the last uninterrupted
// stop-condition run, or -1.
func descResult[S any, P any](d proto.Descriptor[S, P], p P, cfg Config, states []S, steps, rounds, hit int64) Result {
	res := Result{
		Ranks:        d.Ranks(states),
		Interactions: steps,
		Rounds:       rounds,
		Converged:    hit >= 0 || d.Valid(states),
		Exact:        hit >= 0,
		Shards:       cfg.Shards,
		Leader:       d.LeaderOf(states),
		Config:       resultConfig(cfg),
	}
	if hit >= 0 {
		res.Interactions = hit
	}
	if d.Resets != nil {
		res.Resets = d.Resets(p)
	}
	if d.ResetBreakdown != nil {
		res.ResetBreakdown = d.ResetBreakdown(p)
	}
	return res
}

// outcome is the error Run and RunDistributed report with a finished
// run's Result: ErrNotConverged, wrapped, when the budget ran out
// first.
func outcome(res Result) (Result, error) {
	if !res.Converged {
		return res, fmt.Errorf("ssrank: %s after %d interactions: %w", res.Config.Protocol, res.Interactions, ErrNotConverged)
	}
	return res, nil
}
