// Package expt defines the experiment harness: one generator per paper
// figure and per measurable claim (the E1..E14 index of DESIGN.md §4).
// Each generator returns a Figure carrying machine-readable rows (CSV)
// and a terminal rendering (ASCII chart or table), plus notes comparing
// the measurement against what the paper predicts.
//
// All experiments are deterministic functions of Options.Seed: trial
// replications run through the parallel engine in
// internal/sim/replicate, whose per-trial seeds depend only on (seed,
// trial index), so the produced figures are bit-identical at any
// worker count. A trial builds its run through internal/sim/engine, the
// layer the public facade builds its runs through, so a figure and an
// ssrank.Run with the same knobs pick their engine by one rule.
package expt

import (
	"fmt"
	"math"

	"ssrank/internal/plot"
	"ssrank/internal/proto"
	"ssrank/internal/sim"
	"ssrank/internal/sim/engine"
	"ssrank/internal/sim/replicate"
	"ssrank/internal/stats"
)

// Options control experiment scale.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks population ranges and trial counts to keep a full
	// harness run in the seconds range (used by benchmarks and smoke
	// runs). The full-scale settings reproduce the paper's ranges.
	Quick bool
	// Workers bounds the replication worker pool: < 1 means one worker
	// per CPU, 1 forces serial execution. Results do not depend on it.
	// With Shards > 1 the same setting bounds the intra-run shard
	// workers of the generators that adopt the sharded engine.
	Workers int
	// Shards, when > 1, runs the trials of the sharded-engine adopters
	// (E1, E2, and the descriptor-driven stabilization generators
	// E4-E7 and E18) on the sharded engine, resolved and selected by
	// internal/sim/engine as for ssrank.Config.Shards; shard.Auto
	// derives the count from n and the core count, so the output then
	// depends on the machine. Output depends on (Seed, Shards) but
	// never on Workers; Shards ≤ 1 keeps the serial engine and its
	// pinned golden outputs. As for Config.Shards, the sharded law
	// matches the serial one only when a trial's T spans many batches
	// of B = max(512, n/2) interactions (cai at n = 16, T ≈ 2100: +24%
	// at 2 shards). Sharding pays off when single trials dominate
	// (large n, few replications).
	Shards int
	// Precision, when > 0, enables CI-adaptive stopping: each
	// replication loop that designates a statistic stops as soon as
	// the 95% CI half-width of that statistic falls below
	// Precision·|mean| (never before replicate.DefaultMinTrials
	// commits, never after the loop's trial ceiling). The stop
	// decision is a pure function of the committed trial prefix, so
	// results stay bit-identical at any Workers setting.
	Precision float64
	// MaxTrials, when > 0, overrides every replication loop's trial
	// ceiling — raise it to give Precision room beyond the small
	// fixed defaults, or lower it for smoke runs. Structural fan-outs
	// (one slot per n, or the single pinned E1 trajectory) are not
	// affected.
	MaxTrials int
	// Progress, when non-nil, receives one event per committed trial
	// of every replication loop, in trial order, on the generator's
	// goroutine. Reporting is observational: it must not (and cannot)
	// influence results.
	Progress func(Progress)
}

// Progress is one committed-trial event of a replication loop.
type Progress struct {
	// Label identifies the loop, e.g. "E4 n=256".
	Label string
	// Trial is the committed trial index; Committed = Trial+1 trials
	// are done of at most Max.
	Trial     int
	Committed int
	Max       int
	// Mean and CI95 track the loop statistic over the committed
	// prefix (Mean is NaN for loops without a statistic).
	Mean float64
	CI95 float64
}

// QuickOptions returns the scaled-down configuration.
func QuickOptions() Options { return Options{Seed: 0x5eed, Quick: true} }

// Figure is the result of one experiment.
type Figure struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title describes the artifact being reproduced.
	Title string
	// Header and Rows are the machine-readable result table.
	Header []string
	Rows   [][]string
	// ASCII is a terminal rendering (chart or table).
	ASCII string
	// Notes record findings and the paper-vs-measured comparison.
	Notes []string
}

// CSV renders the figure's data as CSV.
func (f Figure) CSV() string { return plot.CSV(f.Header, f.Rows) }

// String renders the figure for the terminal.
func (f Figure) String() string {
	out := fmt.Sprintf("== %s: %s ==\n%s", f.ID, f.Title, f.ASCII)
	for _, n := range f.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// All runs every experiment in index order.
func All(opts Options) []Figure {
	return []Figure{
		Figure2(opts),
		Figure3(opts),
		CensusTable(opts),
		Theorem1Shape(opts),
		Theorem2Shape(opts),
		BaselineComparison(opts),
		TradeoffEpsilon(opts),
		AblationCWait(opts),
		CoinBalance(opts),
		FaultRecovery(opts),
		LEShape(opts),
		FastLESuccess(opts),
		EpidemicTail(opts),
		DeadConfigReset(opts),
		AblationResetWave(opts),
		AblationLEBudget(opts),
		PhaseStructure(opts),
		LooseVsSilent(opts),
		MsgNetFaultRegimes(opts),
	}
}

// Registry maps experiment IDs to their generators, for the CLI.
var Registry = map[string]func(Options) Figure{
	"E1":  Figure2,
	"E2":  Figure3,
	"E3":  CensusTable,
	"E4":  Theorem1Shape,
	"E5":  Theorem2Shape,
	"E6":  BaselineComparison,
	"E7":  TradeoffEpsilon,
	"E8":  AblationCWait,
	"E9":  CoinBalance,
	"E10": FaultRecovery,
	"E11": LEShape,
	"E12": FastLESuccess,
	"E13": EpidemicTail,
	"E14": DeadConfigReset,
	"E15": AblationResetWave,
	"E16": AblationLEBudget,
	"E17": PhaseStructure,
	"E18": LooseVsSilent,
	"E19": MsgNetFaultRegimes,
}

// runTrials fans a fixed work list out over the streaming engine —
// the structural variant (one slot per population size, or E1's single
// pinned trajectory) where the trial count is part of the experiment's
// shape. It streams and reports progress but ignores Precision and
// MaxTrials: stopping a structural fan-out early would drop work
// items, not replications. salt decorrelates the several loops of one
// experiment from each other; every trial's randomness must derive
// from the seed passed to run, which depends only on (Options.Seed,
// salt, trial) — never on scheduling order.
func runTrials[R any](o Options, label string, salt uint64, trials int, run func(trial int, seed uint64) R) []R {
	return streamTrials(o, label, salt, trials, nil, run)
}

// runTrialsStat is the replication-loop variant: trials are
// exchangeable repetitions and stat designates the loop's primary
// statistic (ok=false excludes a trial, e.g. one that exhausted its
// budget). It honors Options.MaxTrials as the ceiling and
// Options.Precision for CI-adaptive stopping, returning the committed
// prefix.
func runTrialsStat[R any](o Options, label string, salt uint64, trials int, stat func(R) (float64, bool), run func(trial int, seed uint64) R) []R {
	if o.MaxTrials > 0 {
		trials = o.MaxTrials
	}
	return streamTrials(o, label, salt, trials, stat, run)
}

// streamTrials drives one loop through replicate.ReplicateStream,
// sharing a single Welford accumulator between the progress reports
// and the precision stop rule so both read the same committed prefix.
func streamTrials[R any](o Options, label string, salt uint64, trials int, stat func(R) (float64, bool), run func(trial int, seed uint64) R) []R {
	s := replicate.Stream[R]{Workers: o.Workers, Trials: trials, Root: o.Seed ^ salt}
	var acc stats.Running
	if stat != nil || o.Progress != nil {
		s.OnCommit = func(c replicate.Commit[R]) {
			if stat != nil {
				if v, ok := stat(c.Result); ok {
					acc.Add(v)
				}
			}
			if o.Progress != nil {
				o.Progress(Progress{
					Label: label, Trial: c.Trial, Committed: c.Committed, Max: trials,
					Mean: acc.Mean(), CI95: acc.CI95Half(),
				})
			}
		}
	}
	if o.Precision > 0 && stat != nil {
		policy := replicate.Precision{Rel: o.Precision}
		s.Stop = func(c replicate.Commit[R]) bool {
			return policy.Met(&acc)
		}
	}
	return replicate.ReplicateStream(s, run)
}

// newEngine builds one trial through internal/sim/engine, the layer
// the facade builds its runs through, so a figure and a Run with the
// same knobs pick their engine by one rule. salt decorrelates the init
// randomness from the scheduler seed. workers bounds the shard worker
// pool: single-trajectory generators pass o.Workers, replicated loops
// 1 (their trial pool already owns the cores); no trajectory depends
// on it.
func newEngine[S any, P sim.TouchReporter[S]](o Options, workers int, d proto.Descriptor[S, P], n int, init string, salt, seed uint64) *engine.Engine[S, P] {
	e, err := engine.New(d, n, init, engine.Knobs{Seed: seed, InitSalt: salt, Shards: o.Shards, Workers: workers})
	if err != nil {
		panic("expt: " + err.Error())
	}
	return e
}

// descStabilize runs one descriptor trial to the exact hitting time of
// its stop condition, returning the stop step, convergence and the
// protocol's reset count (0 without reset instrumentation).
func descStabilize[S any, P sim.TouchReporter[S]](o Options, d proto.Descriptor[S, P], n int, init string, salt, seed uint64, cap int64) (int64, bool, int64) {
	e := newEngine(o, 1, d, n, init, salt, seed)
	hit, ok := e.RunUntilStable(cap, cap)
	if !ok {
		hit = e.Steps()
	}
	var resets int64
	if d.Resets != nil {
		resets = d.Resets(e.Protocol())
	}
	return hit, ok, resets
}

// statSteps designates a stabilization loop's interaction count as its
// statistic, excluding trials that never converged.
func statSteps(t stepsResult) (float64, bool) { return t.steps, t.ok }

// statIdent designates the trial result itself as the statistic.
func statIdent(v float64) (float64, bool) { return v, true }

// stepsResult is the common per-trial outcome of a stabilization run.
type stepsResult struct {
	steps float64
	ok    bool
}

// budget returns c·n²·log₂ n.
func budget(n int, c float64) int64 {
	return int64(c * float64(n) * float64(n) * math.Log2(float64(n)))
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f4 formats a float with four significant digits.
func f4(v float64) string { return fmt.Sprintf("%.4g", v) }

// itoa formats an int.
func itoa(v int) string { return fmt.Sprintf("%d", v) }
