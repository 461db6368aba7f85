package expt

import (
	"fmt"
	"math"

	"ssrank/internal/epidemic"
	"ssrank/internal/plot"
	"ssrank/internal/rng"
	"ssrank/internal/stats"
)

// EpidemicTail (E13) measures one-way epidemic completion times
// OWE(n, m) against the Lemma 14 tail bound
// 3·n²/m·(log m + 2γ log n), the primitive underlying the paper's
// phase-transition broadcasts. The waiting phases of Ranking lengthen
// as ranking progresses precisely because the epidemic is restricted
// to the shrinking subset of unranked agents (m ≈ n·2^{-k}).
func EpidemicTail(opts Options) Figure {
	n := 512
	trials := 60
	if opts.Quick {
		n = 128
		trials = 20
	}
	ms := []int{2, n / 64, n / 16, n / 4, n / 2, n}

	fig := Figure{
		ID:     "E13",
		Title:  "Lemma 14 — one-way epidemic OWE(n, m) completion vs tail bound (γ=1)",
		Header: []string{"m", "trials", "mean", "p99", "bound_gamma1", "violations"},
	}
	meanLine := plot.Series{Name: "mean completion"}
	boundLine := plot.Series{Name: "Lemma 14 bound"}
	for _, m := range ms {
		if m < 2 {
			continue
		}
		bound := epidemic.Bound(n, m, 1)
		violations := 0
		times := runTrials(opts, fmt.Sprintf("E13 m=%d", m), uint64(13*m), trials, statIdent,
			func(_ int, seed uint64) float64 {
				return float64(epidemic.CompletionTime(n, m, rng.New(seed)))
			})
		for _, t := range times {
			if t > bound {
				violations++
			}
		}
		fig.Rows = append(fig.Rows, []string{
			itoa(m), itoa(len(times)), f4(stats.Mean(times)), f4(stats.Quantile(times, 0.99)), f4(bound), itoa(violations),
		})
		meanLine.X = append(meanLine.X, math.Log2(float64(m)))
		meanLine.Y = append(meanLine.Y, math.Log2(stats.Mean(times)))
		boundLine.X = append(boundLine.X, math.Log2(float64(m)))
		boundLine.Y = append(boundLine.Y, math.Log2(bound))
	}
	fig.ASCII = plot.Lines("log₂ completion time vs log₂ m (restricting the epidemic slows it by n/m)", 72, 14, meanLine, boundLine)
	fig.Notes = append(fig.Notes,
		"Lemma 14 permits ≤ 2/n violation probability per trial at γ=1; the bound must upper-envelope the p99 at every m")
	return fig
}
