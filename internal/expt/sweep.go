package expt

import (
	"ssrank/internal/proto"
	"ssrank/internal/sim"
)

// The stabilization sweep and its pilot-trial budget. A sweep's hard
// ceiling (c·n²·log n, or c·n³ for cai) is chosen to be safe for the
// slowest configuration ever observed, which makes a *failing* trial
// catastrophically expensive: a cai run at n=256 that never converges
// would burn its entire 2000·n³ ≈ 3.4·10¹⁰-interaction budget. A short
// pilot bounds that downside: run a couple of trials under the
// ceiling, take the slowest observed convergence, pad it with generous
// headroom, and cap the real sweep there. Converging trials are
// unaffected (they stop at convergence either way); only the cost of
// failures shrinks, from the ceiling to headroom × (observed
// convergence time).
//
// Determinism: pilot seeds derive from (Options.Seed, salt, pilot
// index) through the same replicate.Seed path as sweep trials (under a
// distinct salt, so pilots never reuse sweep seeds), and pilots run
// through the same streaming engine — the derived budget is a pure
// function of Options.Seed and is bit-identical at any worker count.

const (
	// pilotTrials is the pilot size. Two is enough: the budget wants a
	// coarse scale estimate, not a tail quantile — headroom covers the
	// spread.
	pilotTrials = 2
	// pilotHeadroom pads the slowest pilot convergence. Stabilization
	// times concentrate around their mean w.h.p. (the paper's Θ-bounds
	// come with exponential tails), but the reset lottery of the
	// self-stabilizing protocol has a constant per-attempt success
	// rate, so a generous 16× absorbs runs that lose several attempts.
	pilotHeadroom = 16
	// pilotSalt decorrelates pilot seeds from sweep seeds sharing the
	// same loop salt.
	pilotSalt = 0x9110a7
)

// stabTrial is one committed trial of a stabilization sweep: its exact
// stop step (the interactions executed when it did not converge),
// whether it converged, and the protocol's reset count (0 without
// reset instrumentation).
type stabTrial struct {
	steps  int64
	ok     bool
	resets int64
}

// stabilizeSweep runs trials of d from the named init over n agents to
// the exact hitting time of the descriptor's stop condition, each on
// the engine o selects (initSalt decorrelates the init randomness from
// the scheduler seed), and returns every committed trial; the loop's
// statistic is the stop step of the converged ones. The trials' budget
// is pilotHeadroom × the slowest converging pilot, clamped to ceiling.
// When no pilot converges (or the padding overflows) the ceiling
// stands: adaptivity only ever tightens the cap, so a mis-estimating
// pilot can cost trials their convergence but never exceeds the
// ceiling.
func stabilizeSweep[S any, P sim.TouchReporter[S]](o Options, label string, salt uint64, trials int, ceiling int64, d proto.Descriptor[S, P], n int, init string, initSalt uint64) []stabTrial {
	run := func(seed uint64, cap int64) stabTrial {
		e := newEngine(o, 1, d, n, init, initSalt, seed)
		hit, ok := e.RunUntilStable(cap, cap)
		t := stabTrial{steps: hit, ok: ok}
		if !ok {
			t.steps = e.Steps()
		}
		if d.Resets != nil {
			t.resets = d.Resets(e.Protocol())
		}
		return t
	}
	worst := int64(-1)
	for _, p := range runTrials(o, label+" pilot", salt^pilotSalt, pilotTrials, nil, func(_ int, seed uint64) stabTrial {
		return run(seed, ceiling)
	}) {
		if p.ok && p.steps > worst {
			worst = p.steps
		}
	}
	cap := ceiling
	if derived := worst * pilotHeadroom; worst >= 0 && derived > 0 && derived <= ceiling {
		cap = derived
	}
	return runTrials(o, label, salt, trials,
		func(t stabTrial) (float64, bool) { return float64(t.steps), t.ok },
		func(_ int, seed uint64) stabTrial { return run(seed, cap) })
}
