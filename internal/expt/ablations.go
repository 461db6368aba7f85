package expt

import (
	"fmt"
	"math"

	"ssrank/internal/coin"
	"ssrank/internal/core"
	"ssrank/internal/plot"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
	"ssrank/internal/stats"
)

// AblationCWait (E8) probes the constant the analysis leans on hardest:
// c_wait, the length of the leader's waiting period relative to log n
// (Lemma 6 requires c_wait ≥ 24 + 48γ; the paper's simulations get
// away with 2). For the non-self-stabilizing protocol a too-small
// c_wait makes the leader re-enter with rank 1 before all phase agents
// advanced, producing duplicate ranks the protocol can never repair —
// measured as the silent-but-invalid rate. For StableRanking the same
// error is detected and repaired, costing resets instead.
func AblationCWait(opts Options) Figure {
	n := 128
	trials := 30
	if opts.Quick {
		n = 64
		trials = 10
	}
	cwaits := []float64{0.25, 0.5, 1, 2, 4}

	fig := Figure{
		ID:    "E8",
		Title: fmt.Sprintf("Ablation — c_wait (n=%d): failure without self-stabilization, resets with it", n),
		Header: []string{"c_wait", "core_invalid_rate", "core_median_norm",
			"stable_mean_resets", "stable_median_norm"},
	}
	coreFail := plot.Series{Name: "core silent-invalid rate"}
	stResets := plot.Series{Name: "stable mean resets / 10"}

	for _, cw := range cwaits {
		norm := float64(n) * float64(n) * math.Log2(float64(n))

		// Non-self-stabilizing protocol: count silent-but-invalid
		// outcomes. The statistic is the failure indicator — the rate
		// is the quantity the ablation plots, so precision stopping
		// targets it directly.
		invalid := 0
		var coreNorms []float64
		coreRes := runTrials(opts, fmt.Sprintf("E8 core c_wait=%.2g", cw), uint64(cw*100)^0x8, trials,
			func(t stepsResult) (float64, bool) {
				if t.ok {
					return 0, true
				}
				return 1, true
			},
			func(_ int, seed uint64) stepsResult {
				p := core.New(n, core.Params{CWait: cw})
				e := startEngine(opts, core.Describe(), p, p.InitialStates(), seed)
				silent := func(_ int64, ss []core.State) bool { return core.Silent(ss) }
				if _, err := sim.Poll(e, 0, budget(n, 300), silent); err != nil {
					return stepsResult{0, false} // never went silent: also a failure
				}
				return stepsResult{float64(e.Steps()), core.Valid(e.States())}
			})
		for _, t := range coreRes {
			if t.ok {
				coreNorms = append(coreNorms, t.steps/norm)
			} else {
				invalid++
			}
		}

		// Self-stabilizing protocol: always converges; count resets.
		type trialR struct {
			stepsResult
			resets float64
		}
		var stNorms, stRe []float64
		for _, t := range runTrials(opts, fmt.Sprintf("E8 stable c_wait=%.2g", cw), uint64(cw*100)^0x8a5, trials/2,
			func(t trialR) (float64, bool) { return t.steps, t.ok },
			func(_ int, seed uint64) trialR {
				params := stable.DefaultParams()
				params.CWait = cw
				p := stable.New(n, params)
				cap := budget(n, 5000)
				steps, ok := startEngine(opts, stable.Describe(), p, p.InitialStates(), seed).RunUntilStable(cap, cap)
				return trialR{stepsResult{float64(steps), ok}, float64(p.Resets())}
			}) {
			if !t.ok {
				continue
			}
			stNorms = append(stNorms, t.steps/norm)
			stRe = append(stRe, t.resets)
		}

		invalidRate := float64(invalid) / float64(len(coreRes))
		fig.Rows = append(fig.Rows, []string{
			f2(cw), f2(invalidRate), f4(stats.Median(coreNorms)),
			f2(stats.Mean(stRe)), f4(stats.Median(stNorms)),
		})
		coreFail.X = append(coreFail.X, cw)
		coreFail.Y = append(coreFail.Y, invalidRate)
		stResets.X = append(stResets.X, cw)
		stResets.Y = append(stResets.Y, stats.Mean(stRe)/10)
	}
	fig.ASCII = plot.Lines("c_wait ablation", 72, 14, coreFail, stResets)
	fig.Notes = append(fig.Notes,
		"expected: core's invalid rate falls toward 0 as c_wait grows (Lemma 6's union bound), while stable absorbs small c_wait as extra resets — the operational meaning of self-stabilization")
	return fig
}

// CoinBalance (E9) measures the synthetic coin's imbalance after the
// Lemma 28 warm-up, from the adversarial all-tails start, against both
// the paper's C_LE bound n/(4 log₂ n) and the Ehrenfest-stationary
// scale √n.
func CoinBalance(opts Options) Figure {
	ns := []int{256, 1024, 4096, 16384, 65536}
	trials := 20
	if opts.Quick {
		ns = []int{256, 1024}
		trials = 8
	}
	fig := Figure{
		ID:     "E9",
		Title:  "Lemma 28 — synthetic-coin imbalance after warm-up (all-tails start)",
		Header: []string{"n", "trials", "mean_imbalance", "p95_imbalance", "paper_bound", "sqrt_n"},
	}
	meanLine := plot.Series{Name: "mean imbalance"}
	paperLine := plot.Series{Name: "paper bound n/(4 log n)"}
	sqrtLine := plot.Series{Name: "sqrt(n)"}
	for _, n := range ns {
		imb := runTrials(opts, fmt.Sprintf("E9 n=%d", n), uint64(9*n), trials, statIdent,
			func(_ int, seed uint64) float64 {
				p := coin.NewPopulation(coin.AllZero(n), seed)
				p.Step(4 * coin.WarmupInteractions(n))
				return float64(p.Imbalance())
			})
		pb := coin.BalanceBound(n)
		fig.Rows = append(fig.Rows, []string{
			itoa(n), itoa(len(imb)), f2(stats.Mean(imb)), f2(stats.Quantile(imb, 0.95)), f2(pb), f2(math.Sqrt(float64(n))),
		})
		lg := math.Log2(float64(n))
		meanLine.X = append(meanLine.X, lg)
		meanLine.Y = append(meanLine.Y, stats.Mean(imb))
		paperLine.X = append(paperLine.X, lg)
		paperLine.Y = append(paperLine.Y, pb)
		sqrtLine.X = append(sqrtLine.X, lg)
		sqrtLine.Y = append(sqrtLine.Y, math.Sqrt(float64(n)))
	}
	fig.ASCII = plot.Lines("imbalance vs bounds (x = log₂ n)", 72, 14, meanLine, paperLine, sqrtLine)
	fig.Notes = append(fig.Notes,
		"finding: the toggle process is an Ehrenfest urn — stationary imbalance Θ(√n), so the paper's n/(4 log n) bound is asymptotic and only dominates √n for n ≳ 2¹⁵; the warm-up claim (imbalance collapses from n to the stationary scale) holds at every n")
	return fig
}
