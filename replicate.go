package ssrank

import (
	"fmt"

	"ssrank/internal/sim/replicate"
	"ssrank/internal/stats"
)

// ReplicateOptions parameterize Replicate.
type ReplicateOptions struct {
	// Trials is the replication count — the ceiling when Precision is
	// set, the exact count otherwise. Required (≥ 1).
	Trials int
	// Workers bounds the replication worker pool: 0 means one worker
	// per CPU, 1 forces serial execution. Results are bit-identical
	// at every setting (the engine commits trials in index order).
	Workers int
	// Precision, when > 0, stops replicating early: as soon as the
	// 95% CI half-width of the convergence time (over the committed
	// converged trials) falls below Precision·|mean|. The stop
	// decision is a pure function of the committed prefix, so the
	// outcome stays independent of Workers.
	Precision float64
	// OnTrial, when non-nil, receives every trial as it commits — in
	// trial order, on the caller's goroutine. committed is the number
	// of trials committed so far (trial+1). Observational only.
	OnTrial func(trial, committed int, res Result)
}

// Summary aggregates one statistic over the converged trials of a
// replication (Welford accumulation via stats.Running). N = 0 leaves
// the moments NaN.
type Summary struct {
	// N is the number of trials the statistic aggregates.
	N int
	// Mean, StdDev and CI95 are the sample mean, the sample standard
	// deviation, and the 95% confidence half-width of the mean.
	Mean, StdDev, CI95 float64
	// Min and Max bound the observed values.
	Min, Max float64
}

// Replication reports a completed replication sweep.
type Replication struct {
	// Results holds every committed trial's Result, in trial order.
	// Trial i ran cfg with its seed derived deterministically from
	// (cfg.Seed, i), so any row can be re-run in isolation.
	Results []Result
	// Trials is the number of committed trials (< Options.Trials when
	// Precision stopped the stream early).
	Trials int
	// Converged counts the trials that reached the stop condition.
	Converged int
	// Interactions summarizes the convergence times of the converged
	// trials.
	Interactions Summary
	// Resets summarizes the self-healing reset counts of the
	// converged trials.
	Resets Summary
}

// Replicate runs cfg Trials times across the deterministic parallel
// replication engine (internal/sim/replicate): per-trial seeds derive
// from (cfg.Seed, trial) only and results commit in trial order, so
// the Replication is bit-identical at every Workers setting. Budget
// exhaustion in a trial is not an error — the trial commits with
// Converged = false and is excluded from the summaries.
func Replicate(cfg Config, opt ReplicateOptions) (Replication, error) {
	d, cfg, err := normalize(cfg)
	if err != nil {
		return Replication{}, err
	}
	if opt.Trials < 1 {
		return Replication{}, fmt.Errorf("ssrank: ReplicateOptions.Trials must be >= 1, got %d", opt.Trials)
	}
	if opt.Precision < 0 {
		return Replication{}, fmt.Errorf("ssrank: ReplicateOptions.Precision must be >= 0, got %v", opt.Precision)
	}

	stream := replicate.Stream[Result]{
		Workers: opt.Workers, Trials: opt.Trials, Root: cfg.Seed,
		Stat: func(r Result) (float64, bool) { return float64(r.Interactions), r.Converged },
		Rel:  opt.Precision,
	}
	if opt.OnTrial != nil {
		stream.OnCommit = func(c replicate.Commit[Result]) { opt.OnTrial(c.Trial, c.Committed, c.Result) }
	}
	results := replicate.ReplicateStream(stream, func(_ int, seed uint64) Result {
		c := cfg
		c.Seed = seed
		// cfg is vetted, so the only error left is budget exhaustion,
		// which the Result itself reports (Converged = false).
		res, _ := d.run(c)
		return res
	})

	rep := Replication{
		Results:      results,
		Trials:       len(results),
		Interactions: summarize(results, func(r Result) int64 { return r.Interactions }),
		Resets:       summarize(results, func(r Result) int64 { return r.Resets }),
	}
	rep.Converged = rep.Interactions.N
	return rep, nil
}

// summarize folds one statistic of the converged results, in trial
// order, through a Welford accumulator into a Summary.
func summarize(results []Result, stat func(Result) int64) Summary {
	var acc stats.Running
	var lo, hi float64
	for _, r := range results {
		if !r.Converged {
			continue
		}
		v := float64(stat(r))
		if acc.N() == 0 || v < lo {
			lo = v
		}
		if acc.N() == 0 || v > hi {
			hi = v
		}
		acc.Add(v)
	}
	s := Summary{N: acc.N(), Mean: acc.Mean(), StdDev: acc.StdDev(), CI95: acc.CI95Half(), Min: lo, Max: hi}
	if s.N == 0 {
		s.Min, s.Max = s.Mean, s.Mean // NaN
	}
	return s
}
