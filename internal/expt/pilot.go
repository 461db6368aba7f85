package expt

// Pilot-trial adaptive budgets. Every stabilization sweep used to cap
// its trials at a hard-coded c·n²·log n (or c·n³) constant chosen to
// be safe for the slowest configuration ever observed — which makes a
// *failing* trial catastrophically expensive: a cai run at n=256 that
// never converges burns its entire 2000·n³ ≈ 3.4·10¹⁰-interaction
// budget. A short pilot bounds that downside: run a couple of trials
// under the hard ceiling, take the slowest observed convergence, pad
// it with generous headroom, and cap the real sweep there. Converging
// trials are unaffected (they stop at convergence either way); only
// the cost of failures shrinks, from the hard ceiling to
// headroom × (observed convergence time).
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

// pilotOutcome is one pilot trial's report: interactions consumed and
// whether the run converged under the ceiling.
type pilotOutcome struct {
	steps int64
	ok    bool
}

// pilotBudget derives a sweep's interaction budget from a short pilot.
// run executes one trial with the given seed under cap and reports the
// interactions consumed and whether it converged. The result is
// headroom × the slowest converging pilot, clamped to the hard ceiling;
// when no pilot converges (or the padding overflows) the ceiling
// stands — adaptivity only ever tightens the cap, never loosens it, so
// a mis-estimating pilot can cost sweep trials their convergence but
// can never exceed the old hard-coded budget.
func pilotBudget(o Options, label string, salt uint64, ceiling int64, run func(seed uint64, cap int64) (int64, bool)) int64 {
	worst := int64(-1)
	for _, p := range runTrials(o, label+" pilot", salt^pilotSalt, pilotTrials, nil, func(_ int, seed uint64) pilotOutcome {
		steps, ok := run(seed, ceiling)
		return pilotOutcome{steps, ok}
	}) {
		if p.ok && p.steps > worst {
			worst = p.steps
		}
	}
	if worst < 0 {
		return ceiling
	}
	derived := worst * pilotHeadroom
	if derived <= 0 || derived > ceiling {
		return ceiling
	}
	return derived
}
