// Package ssrank is a Go implementation of silent self-stabilizing
// ranking for population protocols, reproducing Berenbrink, Elsässer,
// Götte, Hintze and Kaaser, "Silent Self-Stabilizing Ranking: Time
// Optimal and Space Efficient" (ICDCS 2025, arXiv:2504.10417).
//
// n anonymous agents interact in uniformly random pairs; the protocols
// assign every agent a unique rank in {1..n}. The flagship protocol
// StableRanking self-stabilizes from any initial configuration in
// O(n² log n) interactions w.h.p. using n + O(log² n) states, and
// yields self-stabilizing leader election by declaring the rank-1
// agent the leader.
//
// This package is the stable public facade, organized around a
// protocol descriptor registry: every implemented protocol registers
// one Descriptor bundling its constructor, supported initial
// configurations, validity predicate, exact-stop tracker, and output
// projections. On top of the registry,
//
//   - Run executes any registered protocol to completion, stopping at
//     the exact hitting time of its stop condition on the serial
//     engine (Result.Exact);
//   - Simulation offers stepwise control (inspection, snapshots,
//     fault injection) of any registered protocol;
//   - Replicate fans a configuration out across the deterministic
//     parallel replication engine and reports aggregate statistics.
//
// The full machinery — engine, substrates, baselines, experiment
// harness — lives under internal/; see DESIGN.md.
package ssrank

import (
	"errors"
	"fmt"

	"ssrank/internal/sim/engine"
	"ssrank/internal/sim/shard"
)

// Protocol selects a ranking (or leader-election) protocol.
type Protocol string

const (
	// StableRanking is the paper's self-stabilizing protocol
	// (Theorem 2): n + O(log² n) states, O(n² log n) interactions
	// w.h.p., silent.
	StableRanking Protocol = "stable"
	// SpaceEfficient is the paper's non-self-stabilizing protocol
	// (Theorem 1): n + Θ(log n) states, O(n² log n) interactions
	// w.h.p.; correct w.h.p. only.
	SpaceEfficient Protocol = "space-efficient"
	// Cai is the n-state self-stabilizing baseline (Cai–Izumi–Wada):
	// zero overhead states, Θ(n³) expected interactions.
	Cai Protocol = "cai"
	// Aware is the aware-leader baseline in the style of Burman et
	// al.: n + Ω(n) states, O(n² log n) interactions.
	Aware Protocol = "aware"
	// Interval is the relaxed-range baseline (Gąsieniec et al.): ranks
	// from [1, (1+ε)n], O(n log n/ε) interactions, not
	// self-stabilizing.
	Interval Protocol = "interval"
	// Loose is the loosely-stabilizing leader-election baseline in
	// the style of Sudo et al.: from any configuration a unique
	// leader emerges far faster than any silent protocol allows, but
	// holds only w.h.p. for a long (tunable) holding time. It elects
	// rather than ranks: Result.Ranks carries the leader bit (1 for
	// the leader, 0 otherwise). Uniqueness is transient, so the
	// reported configuration can postdate the hitting time by a few
	// interactions (Result.Interactions is still exact). Both in-place
	// engines measure that hitting time exactly — the serial and
	// sharded trackers evaluate uniqueness after every interaction, so
	// Loose honors Config.Shards like every other protocol.
	Loose Protocol = "loose"
)

// Protocols lists every registered protocol, in registry order.
func Protocols() []Protocol {
	out := make([]Protocol, len(registry))
	for i, d := range registry {
		out[i] = d.Protocol
	}
	return out
}

// Init selects the initial configuration for protocols that register
// several (Descriptor.Inits; the first entry is the default).
type Init string

const (
	// InitFresh starts every agent in the protocol's designated start
	// state.
	InitFresh Init = "fresh"
	// InitWorstCase is the protocol's adversarial initialization: the
	// paper's Fig. 2 configuration for StableRanking, the
	// everyone-a-leader start for Loose.
	InitWorstCase Init = "worst-case"
	// InitRandom draws an arbitrary configuration uniformly from the
	// state space — the adversary of the self-stabilization claims.
	InitRandom Init = "random"
	// InitFig3 is the paper's Fig. 3 initialization (one unaware
	// leader, everyone else decided in leader election;
	// StableRanking only).
	InitFig3 Init = "fig3"
)

// Config parameterizes Run, NewSimulation and Replicate.
type Config struct {
	// N is the population size (≥ 2). Required.
	N int
	// Protocol selects the algorithm; default StableRanking.
	Protocol Protocol
	// Seed drives the scheduler (and, salted, the initialization
	// randomness); runs are deterministic in (Config).
	Seed uint64
	// Init selects the initial configuration; default is the
	// protocol's first registered init (InitFresh for all current
	// protocols). Descriptor.Inits lists what a protocol supports.
	Init Init
	// MaxInteractions caps the run; 0 means the protocol's registered
	// default budget — several times the expected stabilization time,
	// saturating at MaxInt64 for very large n.
	MaxInteractions int64
	// Epsilon is the range slack for Interval (default 1.0).
	Epsilon float64
	// Shards, when > 1, executes the run on the sharded population
	// engine (internal/sim/shard): agents are partitioned into Shards
	// contiguous ranges whose interactions apply concurrently between
	// deterministic batch barriers. The result is a pure function of
	// (Config incl. Shards) — it differs from the serial engine's
	// trajectory and does not depend on ShardWorkers. Its law matches
	// the serial engine's only when the run spans many batches of
	// B = max(512, N/2) interactions, since a batch applies all its
	// intra-shard pairs before its cross pairs: for cai, mean T is
	// 49.66 serial against 570.24 with Shards: 2 at N = 5, and 2125
	// against 2639 (+24%) at N = 16 (4000 seeds per cell, every run
	// Exact). Worth it for very large populations (n ≥ ~10⁵) on
	// multi-core machines; below that the serial engine is typically
	// faster outright (DESIGN.md §3.2). The sentinel AutoShards (-1)
	// derives the count from N and the machine's core count, staying
	// serial for small populations — note the resolved count, and
	// hence the trajectory, then depends on the machine; Result.Shards
	// reports what was resolved. Sharded runs stop at the exact
	// hitting time like serial runs (Result.Exact = true on
	// convergence): per-shard touch records are folded into the stop
	// tracker at each batch barrier, pinning the first satisfying
	// interaction of the batch (DESIGN.md §3.3). The count requested
	// here is clamped to [1, N/2] (every shard needs at least two
	// agents).
	Shards int
	// ShardWorkers bounds the shard worker pool when Shards > 1 —
	// and the message network's delivery worker pool when the run
	// routes through it: < 1 means one worker per CPU. It trades wall
	// clock for cores only; the Result is identical at every setting.
	ShardWorkers int
	// Workers, when > 1, asks a job service (ssrankd with a registered
	// worker pool) to execute the run across that many worker
	// processes via the distributed shard runtime — see RunDistributed
	// for direct use. Like ShardWorkers it is execution-only: the
	// trajectory is a pure function of the rest of the canonical
	// Config, so Workers is cleared from Result.Config, excluded from
	// job cache keys, and ignored entirely by the in-process entry
	// points (Run, NewSimulation, Replicate). Services without workers
	// fall back to in-process execution with an identical Result.
	Workers int
	// Scheduler selects the communication model. The zero value is
	// the paper's uniform scheduler on the fast in-place engines; any
	// named scheduler (an explicit SchedulerUniform included) routes
	// the run through the round-based message network. See the
	// Scheduler type for the model and its caveats (Shards is ignored
	// there, stops are round-polled, Result.Exact is false, sparse
	// topologies generally never converge).
	Scheduler Scheduler
	// Faults injects message-network faults (drop, duplicate, delay,
	// reorder). Any non-zero field routes the run through the message
	// network, under Scheduler's topology (uniform by default).
	Faults Faults
}

// Result reports a completed run.
type Result struct {
	// Ranks holds each agent's final rank (1-based; 0 = unranked).
	// For Interval the ranks live in [1, (1+ε)n]; for Loose the rank
	// is the leader bit (1 = leader).
	Ranks []int
	// Interactions is the number of pairwise interactions executed.
	// When Exact, it is the exact hitting time of the protocol's stop
	// condition. On the message network it counts delivered requests —
	// interactions that actually happened, not messages sent.
	Interactions int64
	// Rounds is the number of communication rounds executed —
	// message-network runs only (0 on the in-place engines, which have
	// no round structure).
	Rounds int64
	// Converged reports whether the protocol's stop condition (a
	// valid silent ranking; a unique leader for Loose) was reached
	// within the budget.
	Converged bool
	// Exact reports whether Interactions is the exact hitting time —
	// the first interaction after which the stop condition held. True
	// on every converged in-place run, serial or sharded: both engines
	// evaluate the condition through the protocol's incremental
	// tracker after every interaction (the sharded engine by folding
	// per-shard touch records at each batch barrier). False only when
	// the budget ran out or the run routed through the round-based
	// message network (whose stops are polled per round).
	Exact bool
	// Shards is the resolved shard count the run executed with: the
	// clamped Config.Shards (or the machine-resolved AutoShards
	// count) on the sharded engine, 1 for serial in-place runs, 0 on
	// the message network (which has no shard structure). Together
	// with the rest of the Config it makes any sharded trajectory
	// reproducible from the Result alone.
	Shards int
	// Leader is the index of the rank-1 agent (-1 if none) — the
	// elected leader under the paper's output function.
	Leader int
	// Resets counts the self-healing resets (self-stabilizing
	// protocols only).
	Resets int64
	// ResetBreakdown classifies the resets by cause (StableRanking
	// only).
	ResetBreakdown map[string]int64
	// Config is the canonical configuration the run executed: the
	// submitted Config with defaults filled and the shard count
	// resolved (Config.Normalized), with the execution-only knobs
	// (ShardWorkers, Workers) cleared — worker counts, in-process or
	// distributed, never affect the trajectory, so they are not part
	// of the reproduction recipe and Result stays byte-identical
	// across them. Re-running this Config reproduces the Result
	// exactly: every row of a replication, every cached job result,
	// carries its own reproduction recipe.
	Config Config
}

// resultConfig is the form of a normalized Config stamped onto Result:
// the execution-only knobs (ShardWorkers, Workers) cleared, everything
// else the canonical form the engines executed.
func resultConfig(cfg Config) Config {
	cfg.ShardWorkers = 0
	cfg.Workers = 0
	return cfg
}

// ErrNotConverged is wrapped into Run's error when the budget is
// exhausted first. The partial Result is still returned.
var ErrNotConverged = errors.New("ssrank: ranking did not converge within the interaction budget")

// AutoShards is the Config.Shards sentinel that picks the shard count
// automatically from N and the machine's core count
// (shard.AutoShards): serial below the population size where sharding
// pays for its coordination, one shard per core (with a minimum slab
// per shard) above.
const AutoShards = shard.Auto

// Run executes the configured protocol until it reaches its stop
// condition — a valid silent ranking, a unique leader for Loose — or
// the budget runs out. Serial and sharded runs both stop at the exact
// hitting time via the protocol's registered incremental tracker
// (Result.Exact); only message-network runs poll.
func Run(cfg Config) (Result, error) {
	d, cfg, err := normalize(cfg)
	if err != nil {
		return Result{}, err
	}
	return d.run(cfg)
}

// Normalized returns the canonical form of cfg: defaults filled
// (protocol, init, ε, budget), the shard count resolved (AutoShards
// expanded against this machine, clamped to [1, N/2]; 0 when the
// configuration routes through the message network) — exactly the
// configuration the engines execute. Two Configs with equal canonical
// forms modulo ShardWorkers produce byte-identical Results, which is
// what makes the canonical form a cache key: ShardWorkers trades wall
// clock for cores only and is excluded from that equivalence.
//
// Every entry point (Run, NewSimulation, Replicate) normalizes through
// this one path, and Result.Config reports the canonical form a run
// actually executed.
func (cfg Config) Normalized() (Config, error) {
	_, c, err := normalize(cfg)
	return c, err
}

// normalize validates cfg against the registry and canonicalizes it:
// defaults filled (protocol, init, ε, budget) and the shard count
// resolved. It is the single vetting path shared by Run, NewSimulation,
// ResumeSimulation and Replicate; the returned Config is what the
// engine layers execute and what Result.Config reports.
func normalize(cfg Config) (*Descriptor, Config, error) {
	if cfg.N < 2 {
		return nil, cfg, fmt.Errorf("ssrank: N must be >= 2, got %d", cfg.N)
	}
	if cfg.Protocol == "" {
		cfg.Protocol = StableRanking
	}
	d, ok := lookup(cfg.Protocol)
	if !ok {
		return nil, cfg, fmt.Errorf("ssrank: unknown protocol %q", cfg.Protocol)
	}
	if cfg.Init == "" {
		cfg.Init = d.Inits[0]
	}
	if !d.Supports(cfg.Init) {
		return nil, cfg, fmt.Errorf("ssrank: protocol %q supports inits %v, got %q", cfg.Protocol, d.Inits, cfg.Init)
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1.0
	}
	if err := checkNetwork(cfg); err != nil {
		return nil, cfg, err
	}
	if cfg.MaxInteractions == 0 {
		cfg.MaxInteractions = d.DefaultBudget(cfg.N)
	}
	cfg.Shards = engine.ResolveShards(cfg.Shards, cfg.N)
	if cfg.messageNetwork() {
		cfg.Shards = 0 // no shard structure
	}
	return d, cfg, nil
}

// defaultBudget returns the registered default interaction budget for
// protocol p at population size n (0 for unknown protocols). Budgets
// are computed in float64 and saturate at MaxInt64, so very large n
// cannot overflow into a negative or tiny cap.
func defaultBudget(n int, p Protocol) int64 {
	if d, ok := lookup(p); ok {
		return d.DefaultBudget(n)
	}
	return 0
}
