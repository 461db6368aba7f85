package expt

import (
	"fmt"
	"math"

	"ssrank/internal/baseline/sudo"
	"ssrank/internal/plot"
	"ssrank/internal/stable"
	"ssrank/internal/stats"
)

// LooseVsSilent (E18) measures the related-work trade-off of §II
// between loosely-stabilizing leader election (Sudo et al.) and the
// paper's silent, ranking-based leader election:
//
//   - convergence: loose LE reaches a unique leader far faster than
//     any silent protocol, evading the Ω(n² log n) lower bound by
//     never becoming silent (this simplified variant pays Θ(n²) for
//     duel elimination; Sudo et al.'s full constructions reach
//     O(n log n));
//   - permanence: the silent protocol holds the leader forever (it is
//     a stable configuration), while loose LE only holds w.h.p. for a
//     holding time tuned by its timeout factor.
func LooseVsSilent(opts Options) Figure {
	ns := []int{64, 128, 256, 512}
	trials := 10
	holdBudgetFactor := 2000.0 // interactions (×n·log n) we probe the holding time for
	if opts.Quick {
		ns = []int{64, 128}
		trials = 4
		holdBudgetFactor = 200
	}

	fig := Figure{
		ID:    "E18",
		Title: "Loose vs silent leader election — convergence and holding time",
		Header: []string{"n", "loose_median_conv_over_n2", "loose_survived_hold_budget",
			"silent_median_conv_over_n2logn", "speedup"},
	}
	looseLine := plot.Series{Name: "loose conv / n²"}
	silentLine := plot.Series{Name: "silent conv / (n² log n)"}

	for _, n := range ns {
		lg := math.Log2(float64(n))

		// Loosely-stabilizing: convergence from the drained no-leader
		// start, then probe the holding time.
		type looseR struct {
			stepsResult
			held bool
		}
		var convs []float64
		survived := 0
		for _, t := range runTrials(opts, fmt.Sprintf("E18 loose n=%d", n), uint64(18*n), trials,
			func(t looseR) (float64, bool) { return t.steps, t.ok },
			func(_ int, seed uint64) looseR {
				r := newEngine(opts, 1, sudo.Describe(sudo.DefaultTimeoutFactor), n, "fresh", 0, seed)
				// Exact stopping matters doubly here: uniqueness is
				// transient for loose LE, so a polled scan can sail
				// through a short uniqueness window entirely.
				cap := int64(1000 * float64(n) * lg)
				steps, ok := r.RunUntilStable(cap, cap)
				if !ok {
					return looseR{}
				}
				out := looseR{stepsResult{float64(steps), true}, true}
				// Holding probe: does the unique leader survive the budget?
				// The engine may sit up to one sub-batch (serial) or one
				// batch (sharded) past the hitting time — uniqueness is
				// not a silent condition — so check the probe's start state
				// first: if uniqueness already broke in that window, the
				// hold failed immediately.
				if !sudo.UniqueLeader(r.States()) {
					out.held = false
					return out
				}
				probe := int64(holdBudgetFactor * float64(n) * lg / 100)
				for i := 0; i < 100; i++ {
					r.Run(probe)
					if !sudo.UniqueLeader(r.States()) {
						out.held = false
						break
					}
				}
				return out
			}) {
			if !t.ok {
				continue
			}
			convs = append(convs, t.steps/(float64(n)*float64(n)))
			if t.held {
				survived++
			}
		}

		// Silent (the paper's protocol): convergence to a valid ranking
		// = permanent leader.
		var silentConvs []float64
		for _, t := range stabilizeSweep(opts, fmt.Sprintf("E18 silent n=%d", n), uint64(18*n)^0x511e47, trials/2+1,
			budget(n, 3000), stable.Describe(), n, "fresh", 0) {
			if t.ok {
				silentConvs = append(silentConvs, float64(t.steps)/(float64(n)*float64(n)*lg))
			}
		}

		speedup := stats.Median(silentConvs) * lg / stats.Median(convs)
		fig.Rows = append(fig.Rows, []string{
			itoa(n),
			f4(stats.Median(convs)),
			fmt.Sprintf("%d/%d", survived, len(convs)),
			f4(stats.Median(silentConvs)),
			f2(speedup),
		})
		looseLine.X = append(looseLine.X, lg)
		looseLine.Y = append(looseLine.Y, stats.Median(convs))
		silentLine.X = append(silentLine.X, lg)
		silentLine.Y = append(silentLine.Y, stats.Median(silentConvs))
	}
	fig.ASCII = plot.Lines("normalized convergence (x = log₂ n); note the different normalizations", 72, 12, looseLine, silentLine)
	fig.Notes = append(fig.Notes,
		"loose LE converges in Θ(n²) here (duel-dominated; the literature's optimal variants reach O(n log n)) — already a ×(const·log n) absolute speedup over the silent protocol — but keeps churning and only holds the leader w.h.p.; the paper's protocol converges slower and then never changes again (closure tests + model checker)")
	return fig
}
