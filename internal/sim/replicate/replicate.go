// Package replicate is the deterministic parallel replication engine:
// it fans independent simulation trials out over a worker pool while
// keeping every result a pure function of (experiment seed, trial
// index). Per-trial seeds are derived from the experiment seed by a
// splitmix64 finalizer — never from a shared stream consumed in
// scheduling order — so the result slice is bit-identical whether the
// trials run on one worker or on runtime.NumCPU() of them.
//
// The paper's protocols cost Θ(n² log n)–Θ(n³) interactions per run
// and every figure averages dozens of replications; this package is
// what turns those sweeps from serial minutes into parallel seconds
// without sacrificing reproducibility.
package replicate

import "runtime"

// Seed derives the seed of trial `trial` from the experiment root
// seed. The derivation depends only on (root, trial), uses the
// splitmix64 finalizer for full avalanche, and is stable across
// releases — recorded experiment outputs stay reproducible.
func Seed(root uint64, trial int) uint64 {
	z := root + 0x9e3779b97f4a7c15*uint64(trial+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// workers resolves a worker-count request: values < 1 mean "one per
// CPU", and the count is clamped to the number of trials.
func workers(requested, trials int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > trials {
		w = trials
	}
	if w < 1 {
		w = 1
	}
	return w
}
