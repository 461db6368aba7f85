package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"ssrank/internal/stats"
)

// compareFiles judges result file B against result file A (the parent),
// one row per (workload, metric), and returns the exit code: 1 when any
// end-to-end metric got worse or went missing, or a workload's error
// rate rose.
func compareFiles(sp *spec, paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "usage: ssbench -compare A.json B.json")
		return 2
	}
	a, err := readResults(paths[0])
	if err != nil {
		fmt.Fprintln(stderr, "ssbench:", err)
		return 2
	}
	b, err := readResults(paths[1])
	if err != nil {
		fmt.Fprintln(stderr, "ssbench:", err)
		return 2
	}
	if compareRuns(sp, a, b, stdout) {
		return 1
	}
	return 0
}

// compareRuns prints the comparison table and reports whether B
// regressed.
func compareRuns(sp *spec, a, b *resultsFile, w io.Writer) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			av, bv := samples(a, wl.Name, m.Name, false), samples(b, wl.Name, m.Name, false)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			change, verdict := judge(m, av, bv)
			regressed = regressed || verdict == "worse" || verdict == "missing"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", wl.Name, m.Name, m.Unit, quartileCell(av), quartileCell(bv), 100*change, 100*m.Bound, verdict)
		}
		ea, aok := workloadErrorRate(a, wl.Name)
		eb, bok := workloadErrorRate(b, wl.Name)
		if aok || bok {
			verdict := "same"
			if eb > ea || !bok {
				verdict = "worse"
				regressed = true
			} else if eb < ea {
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\terror_rate\tratio\t%.4g\t%.4g\t\t0%%\t%s\n", wl.Name, ea, eb, verdict)
		}
		for _, m := range sp.PerLayer {
			av, bv := samples(a, wl.Name, m.Name, true), samples(b, wl.Name, m.Name, true)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t\tlayer\n", wl.Name, m.Name, m.Unit, quartileCell(av), quartileCell(bv), 100*relChange(av, bv))
		}
	}
	tw.Flush()
	return regressed
}

// judge compares B's values of one end-to-end metric with A's. The
// change is B's median relative to A's. The verdict:
//   - unresolved: the run-to-run spread (quartile distance over median)
//     of either side exceeds the bound, unless every B run beats every A
//     run (then better);
//   - worse: the median worsened by more than the bound;
//   - better: B wins at least 90% of the (A run, B run) pairs and the
//     median improved by more than A's own spread;
//   - same otherwise; missing when a side has no runs.
//
// setup_s is judged on its median alone, never unresolved: set-up is a
// few milliseconds of process start, whose run-to-run spread belongs to
// the operating system, while a set-up regression moves the median.
func judge(m specMetric, av, bv []float64) (change float64, verdict string) {
	if len(av) == 0 || len(bv) == 0 {
		return math.NaN(), "missing"
	}
	change = relChange(av, bv)
	worsening := change
	if m.Better == "higher" {
		worsening = -change
	}
	beats := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, all := 0, true
	for _, x := range av {
		for _, y := range bv {
			if beats(y, x) {
				wins++
			} else {
				all = false
			}
		}
	}
	switch {
	case m.Name != "setup_s" && math.Max(spread(av), spread(bv)) > m.Bound:
		if all {
			return change, "better"
		}
		return change, "unresolved"
	case worsening > m.Bound:
		return change, "worse"
	case -worsening > spread(av) && float64(wins) >= 0.9*float64(len(av)*len(bv)):
		return change, "better"
	}
	return change, "same"
}

// spread is the quartile distance of xs over its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

func relChange(av, bv []float64) float64 {
	ma := stats.Median(av)
	return (stats.Median(bv) - ma) / math.Abs(ma)
}

func quartileCell(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(xs))
}

// samples collects one metric's values over a file's runs of a workload.
func samples(f *resultsFile, workload, metric string, traced bool) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// workloadErrorRate is failed checks over attempted checks across a
// file's runs of a workload.
func workloadErrorRate(f *resultsFile, workload string) (float64, bool) {
	failed, attempted, found := 0, 0, false
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
			found = true
		}
	}
	return errorRate(failed, attempted), found
}
