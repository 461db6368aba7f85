package expt

import (
	"testing"

	"ssrank/internal/baseline/aware"
	"ssrank/internal/baseline/cai"
	"ssrank/internal/core"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
)

// TestRankCondMatchesValid wires each protocol's RankOf extractor into
// the engine's incremental condition and checks it against the
// protocol's own Valid predicate: RunUntilCondT must stop at a
// configuration Valid accepts, and the condition must agree with Valid
// at every sampled point along a real run. This is the equivalence the
// RankOf doc comments promise.
func TestRankCondMatchesValid(t *testing.T) {
	const n = 32

	t.Run("stable", func(t *testing.T) {
		p := stable.New(n, stable.DefaultParams())
		r := sim.New[stable.State](p, p.InitialStates(), 3)
		cond := sim.NewRankCond(0, stable.RankOf)
		checkAgainstValid(t, r, cond, stable.Valid, budget(n, 3000))
	})
	t.Run("core", func(t *testing.T) {
		p := core.New(n, core.DefaultParams())
		r := sim.New[core.State](p, p.InitialStates(), 5)
		cond := sim.NewRankCond(0, core.RankOf)
		checkAgainstValid(t, r, cond, core.Valid, budget(n, 200))
	})
	t.Run("cai", func(t *testing.T) {
		p := cai.New(n)
		r := sim.New[cai.State](p, p.InitialStates(), 7)
		cond := sim.NewRankCond(0, cai.RankOf)
		checkAgainstValid(t, r, cond, cai.Valid, int64(2000*n*n*n))
	})
	t.Run("aware", func(t *testing.T) {
		p := aware.New(n, aware.DefaultParams())
		r := sim.New[aware.State](p, p.InitialStates(), 9)
		cond := sim.NewRankCond(0, aware.RankOf)
		checkAgainstValid(t, r, cond, aware.Valid, budget(n, 3000))
	})
}

// checkAgainstValid alternates short RunUntilCondT slices with direct
// Valid evaluations: after every slice the incremental verdict must
// match the brute-force predicate, and the run must end accepted by
// both.
func checkAgainstValid[S any, P sim.TouchReporter[S]](t *testing.T, r *sim.Runner[S, P], cond sim.Condition[S], valid func([]S) bool, maxSteps int64) {
	t.Helper()
	for r.Steps() < maxSteps {
		chunk := r.Steps() + 500
		if chunk > maxSteps {
			chunk = maxSteps
		}
		_, err := sim.RunUntilCondT(r, cond, chunk)
		if got, want := err == nil, valid(r.States()); got != want {
			t.Fatalf("after %d interactions: RunUntilCondT stopped=%v but Valid=%v", r.Steps(), got, want)
		}
		if err == nil {
			return // converged, and Valid agrees
		}
	}
	t.Fatalf("did not converge within %d interactions", maxSteps)
}
