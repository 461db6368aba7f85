package expt

import (
	"fmt"
	"math"

	"ssrank/internal/plot"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
	"ssrank/internal/stats"
)

// AblationResetWave (E15) sweeps PropagateReset's two constants — the
// hop budget R_max and the dormancy D_max (both ×log₂ n) — and
// measures how reliably a single triggered agent resets the *whole*
// population before anyone restarts, plus the end-to-end cost. Too
// small an R_max lets the wave die out with survivors; too small a
// D_max wakes early agents while stale computation is still around;
// both surface as extra resets rather than failures (self-stabilization
// absorbs mis-tuning), which is exactly what the sweep shows.
func AblationResetWave(opts Options) Figure {
	n := 256
	trials := 12
	if opts.Quick {
		n = 64
		trials = 5
	}
	factors := []float64{0.5, 1, 2, 4, 8}

	fig := Figure{
		ID:    "E15",
		Title: fmt.Sprintf("Ablation — PropagateReset constants (n=%d): wave coverage and total cost", n),
		Header: []string{"factor(Rmax=Dmax)", "full_coverage_rate", "median_wave_over_nlogn",
			"median_stabilize_norm", "mean_resets"},
	}
	coverage := plot.Series{Name: "full-coverage rate"}
	costLine := plot.Series{Name: "median stabilization norm / 20"}

	for _, f := range factors {
		params := stable.DefaultParams()
		params.RMaxFactor = f
		params.DMaxFactor = f

		type trialR struct {
			covered      bool
			wave         float64
			stabilized   bool
			norm, resets float64
		}
		covered := 0
		var waves, norms, resets []float64
		res := runTrials(opts, fmt.Sprintf("E15 factor=%.2g", f), uint64(f*1000)^0xe15, trials,
			func(t trialR) (float64, bool) { return t.norm, t.stabilized },
			func(_ int, seed uint64) trialR {
				var out trialR
				// Phase 1: wave coverage. Trigger one agent of a fully
				// ranked (legal) population and watch whether every agent
				// leaves the main protocol before any returns to it.
				p := stable.New(n, params)
				states := make([]stable.State, n)
				for i := range states {
					states[i] = stable.Ranked(int32(i + 1))
				}
				p.TriggerReset(&states[0])
				e := startEngine(opts, stable.Describe(), p, states, seed)
				fullyOut := func(_ int64, ss []stable.State) bool {
					for i := range ss {
						if ss[i].IsMain() {
							return false
						}
					}
					return true
				}
				waveBudget := int64(200 * float64(n) * math.Log2(float64(n)) * (f + 1))
				if steps, err := sim.Poll(e, 0, waveBudget, fullyOut); err == nil {
					out.covered = true
					out.wave = float64(steps) / (float64(n) * math.Log2(float64(n)))
				}

				// Phase 2: end-to-end stabilization cost with these
				// constants, from the worst-case start.
				p2 := stable.New(n, params)
				cap := budget(n, 5000)
				if s2, ok := startEngine(opts, stable.Describe(), p2, p2.WorstCaseInit(), seed^0x9e15).RunUntilStable(cap, cap); ok {
					out.stabilized = true
					out.norm = float64(s2) / (float64(n) * float64(n) * math.Log2(float64(n)))
					out.resets = float64(p2.Resets())
				}
				return out
			})
		for _, t := range res {
			if t.covered {
				covered++
				waves = append(waves, t.wave)
			}
			if t.stabilized {
				norms = append(norms, t.norm)
				resets = append(resets, t.resets)
			}
		}
		covRate := float64(covered) / float64(len(res))
		medNorm := stats.Median(norms)
		fig.Rows = append(fig.Rows, []string{
			f2(f), f2(covRate), f4(stats.Median(waves)), f4(medNorm), f2(stats.Mean(resets)),
		})
		coverage.X = append(coverage.X, f)
		coverage.Y = append(coverage.Y, covRate)
		costLine.X = append(costLine.X, f)
		costLine.Y = append(costLine.Y, medNorm/20)
	}
	fig.ASCII = plot.Lines("reset-wave ablation (x = Rmax/Dmax factor)", 72, 12, coverage, costLine)
	fig.Notes = append(fig.Notes,
		"Burman et al.'s analysis wants R_max = 60·ln n; the sweep shows where cheaper constants start leaking (coverage < 1) and that the protocol still stabilizes — mis-tuning costs resets, not correctness")
	return fig
}

// AblationLEBudget (E16) sweeps FastLeaderElection's interaction
// budget. This is the constant the implementation had to split from
// L_max (EXPERIMENTS.md finding 2): budgets near c_live·log n race the
// start-of-ranking epidemic and multiply spurious le-expired resets.
func AblationLEBudget(opts Options) Figure {
	n := 256
	trials := 12
	if opts.Quick {
		n = 64
		trials = 5
	}
	factors := []float64{2, 4, 8, 16, 32}

	fig := Figure{
		ID:     "E16",
		Title:  fmt.Sprintf("Ablation — FastLeaderElection budget factor (n=%d)", n),
		Header: []string{"budget_factor", "mean_le_expired_resets", "mean_total_resets", "median_stabilize_norm"},
	}
	leLine := plot.Series{Name: "mean le-expired resets"}
	normLine := plot.Series{Name: "median stabilization norm"}
	for _, f := range factors {
		params := stable.DefaultParams()
		params.LEBudgetFactor = f
		type trialR struct {
			stepsResult
			leResets, resets float64
		}
		var leResets, total, norms []float64
		for _, t := range runTrials(opts, fmt.Sprintf("E16 factor=%.2g", f), uint64(f*100)^0xe16, trials,
			func(t trialR) (float64, bool) { return t.steps, t.ok },
			func(_ int, seed uint64) trialR {
				p := stable.New(n, params)
				cap := budget(n, 5000)
				s, ok := startEngine(opts, stable.Describe(), p, p.InitialStates(), seed).RunUntilStable(cap, cap)
				return trialR{stepsResult{float64(s), ok},
					float64(p.ResetsFor(stable.ReasonLEExpired)), float64(p.Resets())}
			}) {
			if t.ok {
				norms = append(norms, t.steps/(float64(n)*float64(n)*math.Log2(float64(n))))
				leResets = append(leResets, t.leResets)
				total = append(total, t.resets)
			}
		}
		fig.Rows = append(fig.Rows, []string{
			f2(f), f2(stats.Mean(leResets)), f2(stats.Mean(total)), f4(stats.Median(norms)),
		})
		leLine.X = append(leLine.X, f)
		leLine.Y = append(leLine.Y, stats.Mean(leResets))
		normLine.X = append(normLine.X, f)
		normLine.Y = append(normLine.Y, stats.Median(norms))
	}
	fig.ASCII = plot.Lines("LE budget ablation (x = budget factor)", 72, 12, leLine, normLine)
	fig.Notes = append(fig.Notes,
		"small budgets churn on le-expired resets (the race against the conversion epidemic); very large budgets slow the no-leader retry path — the default 8 sits in the flat valley")
	return fig
}
