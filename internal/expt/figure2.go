package expt

import (
	"fmt"

	"ssrank/internal/plot"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
)

// Figure2 reproduces the paper's Fig. 2: the number of ranked agents
// (and the mean phase counter of unranked agents) as a function of
// interactions/n², starting from the worst-case initialization — 255 of
// 256 agents pre-ranked with ranks 2..256 and one phase agent with
// maximal liveness counter. The protocol must first detect that the
// configuration is dead (Θ(n² log n) interactions through the liveness
// counter), reset, and then re-rank everyone.
func Figure2(opts Options) Figure {
	n := 256
	maxUnits := 150.0 // x-axis budget in units of n² (paper stabilizes near 60)
	if opts.Quick {
		n = 64
		maxUnits = 400 // small n: the reset lottery has higher variance
	}

	type point struct {
		units  float64
		ranked int
		phase  float64
		resets int64
	}
	type fig2run struct {
		pts          []point
		stabilizedAt float64
		resets       int64
		breakdown    map[string]int64
	}
	// A single trajectory, seeded directly by the experiment seed (the
	// engine's per-trial derivation would re-seed the one figure the
	// paper pins to a specific worst-case run); the replication engine
	// still hosts it so every generator shares one execution path.
	// With opts.Shards > 1 the trajectory runs on the sharded engine —
	// the single-trial figure where intra-run parallelism is the only
	// parallelism there is.
	res := runTrials(opts, "E1", 0, 1, func(int, uint64) fig2run {
		r := newEngine(opts, opts.Workers, stable.Describe(), n, "worst-case", 0, opts.Seed)
		p := r.Protocol()
		out := fig2run{stabilizedAt: -1}
		sample := int64(n) * int64(n) / 4
		maxSteps := int64(maxUnits * float64(n) * float64(n))
		sim.Poll(r, sample, maxSteps, func(steps int64, states []stable.State) bool {
			u := float64(steps) / float64(n) / float64(n)
			out.pts = append(out.pts, point{u, stable.RankedCount(states), stable.MeanPhase(states), p.Resets()})
			if !stable.Valid(states) {
				return false
			}
			out.stabilizedAt = u
			return true
		})
		out.resets = p.Resets()
		out.breakdown = p.ResetBreakdown()
		return out
	})[0]
	pts, stabilizedAt := res.pts, res.stabilizedAt

	fig := Figure{
		ID:     "E1",
		Title:  fmt.Sprintf("Fig. 2 — recovery from worst-case initialization (n=%d)", n),
		Header: []string{"interactions_over_n2", "ranked_agents", "mean_phase_unranked", "resets_so_far"},
	}
	ranked := plot.Series{Name: "ranked agents"}
	phase := plot.Series{Name: fmt.Sprintf("mean phase x%d", n/10)}
	for _, pt := range pts {
		fig.Rows = append(fig.Rows, []string{f2(pt.units), itoa(pt.ranked), f2(pt.phase), fmt.Sprintf("%d", pt.resets)})
		ranked.X = append(ranked.X, pt.units)
		ranked.Y = append(ranked.Y, float64(pt.ranked))
		phase.X = append(phase.X, pt.units)
		phase.Y = append(phase.Y, pt.phase*float64(n)/10) // scale onto the ranked axis, as the paper's twin axis does
	}
	fig.ASCII = plot.Lines(fig.Title, 72, 18, ranked, phase)

	if stabilizedAt >= 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"stabilized at %.1f n² interactions with %d resets (paper shows ≈60 n² for n=256; same reset-then-re-rank shape)",
			stabilizedAt, res.resets))
	} else {
		fig.Notes = append(fig.Notes, fmt.Sprintf("NOT stabilized within %.0f n²; resets=%v", maxUnits, res.breakdown))
	}
	firstReset := -1.0
	for _, pt := range pts {
		if pt.resets > 0 {
			firstReset = pt.units
			break
		}
	}
	if firstReset >= 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"first reset detected by ≈%.1f n² (dead-configuration detection via the liveness counter, Θ(n² log n))", firstReset))
	}
	return fig
}
