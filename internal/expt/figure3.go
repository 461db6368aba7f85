package expt

import (
	"fmt"
	"math"

	"ssrank/internal/plot"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
	"ssrank/internal/stats"
)

// fig3Fractions are the ranked fractions whose hitting times Fig. 3
// reports.
var fig3Fractions = []struct {
	name string
	num  int
	den  int
}{
	{"1/2", 1, 2},
	{"3/4", 3, 4},
	{"7/8", 7, 8},
	{"15/16", 15, 16},
}

// fig3HittingTimes runs one trial from the Fig. 3 initialization and
// returns, per fraction, the interactions/n² at which it was first
// reached (-1 when not reached within the budget).
func fig3HittingTimes(opts Options, n int, seed uint64) []float64 {
	r := newEngine(opts, 1, stable.Describe(), n, "fig3", 0, seed)
	times := make([]float64, len(fig3Fractions))
	for i := range times {
		times[i] = -1
	}
	next := 0
	sim.Poll(r, int64(n), budget(n, 100), func(steps int64, states []stable.State) bool {
		ranked := stable.RankedCount(states)
		for next < len(fig3Fractions) {
			fr := fig3Fractions[next]
			if ranked*fr.den < n*fr.num {
				break
			}
			times[next] = float64(steps) / float64(n) / float64(n)
			next++
		}
		return next >= len(fig3Fractions)
	})
	return times
}

// Figure3 reproduces the paper's Fig. 3: the number of interactions
// (normalized by n²) needed until a constant fraction of agents is
// ranked, starting from one unaware leader with rank 1 and everyone
// else in a leader-election state, across n = 2⁷..2¹³.
//
// The paper runs 100 simulations per n; on a single-core budget the
// trial count scales down with n (EXPERIMENTS.md records the counts).
// The claim under test is the *shape*: constant fractions are ranked
// after Θ(n²) interactions — the normalized curves are flat in n and
// increase only mildly in the fraction (coupon-collector behaviour) —
// while full ranking needs Θ(n² log n).
func Figure3(opts Options) Figure {
	ns := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	trialsFor := func(n int) int {
		switch {
		case n <= 512:
			return 48
		case n <= 1024:
			return 24
		case n <= 2048:
			return 12
		case n <= 4096:
			return 6
		default:
			return 3
		}
	}
	if opts.Quick {
		ns = []int{128, 256, 512}
		trialsFor = func(int) int { return 6 }
	}

	fig := Figure{
		ID:     "E2",
		Title:  "Fig. 3 — interactions/n² to rank constant fractions of agents",
		Header: []string{"n", "fraction", "trials", "mean_over_n2", "ci95_half", "median_over_n2"},
	}

	series := make([]plot.Series, len(fig3Fractions))
	for i, fr := range fig3Fractions {
		series[i].Name = fr.name
	}

	for _, n := range ns {
		trials := trialsFor(n)
		hit := make([][]float64, len(fig3Fractions))
		// The precision statistic is the slowest fraction's hitting
		// time (15/16): it dominates the row's variance, so a CI tight
		// there is tight everywhere.
		for _, times := range runTrialsStat(opts, fmt.Sprintf("E2 n=%d", n), uint64(n), trials,
			func(times []float64) (float64, bool) {
				last := times[len(times)-1]
				return last, last >= 0
			},
			func(_ int, seed uint64) []float64 {
				return fig3HittingTimes(opts, n, seed)
			}) {
			for i, v := range times {
				if v >= 0 {
					hit[i] = append(hit[i], v)
				}
			}
		}
		for i, fr := range fig3Fractions {
			if len(hit[i]) == 0 {
				fig.Notes = append(fig.Notes, fmt.Sprintf("n=%d fraction %s: no trial reached the fraction in budget", n, fr.name))
				continue
			}
			mean, ci := stats.MeanCI95(hit[i])
			fig.Rows = append(fig.Rows, []string{
				itoa(n), fr.name, itoa(len(hit[i])), f2(mean), f2(ci), f2(stats.Median(hit[i])),
			})
			series[i].X = append(series[i].X, math.Log2(float64(n)))
			series[i].Y = append(series[i].Y, mean)
		}
	}

	fig.ASCII = plot.Lines("interactions/n² to reach ranked fraction (x = log₂ n)", 72, 16, series...)
	fig.Notes = append(fig.Notes,
		"paper's Fig. 3: flat-in-n normalized curves between ≈1 n² (1/2) and ≈10 n² (15/16); the shape criterion is flatness in n and ordering in the fraction")
	return fig
}
