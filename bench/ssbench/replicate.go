package main

import (
	"os"
	"reflect"
	"slices"
	"time"

	"ssrank"
	"ssrank/internal/rng"
	"ssrank/internal/stats"
)

// replicateWorkers is the sweep's worker pool: both cores of the
// two-core recording machine. It is fixed rather than "one per CPU" so
// that a sweep means the same work on every machine.
const replicateWorkers = 2

// replicateSweep is how figures are made: many short StableRanking runs
// from random configurations (n = 256), replicated across both cores
// with ordered commits.
type replicateSweep struct {
	inProcess
	sweeps []sweepOp
	peakMB float64
}

// sweepOp is one timed Replicate call.
type sweepOp struct {
	cfg  ssrank.Config
	rep  ssrank.Replication
	wall time.Duration
}

func (w *replicateSweep) measure(e *env, d time.Duration, probe bool) {
	r := rng.New(e.seed ^ 0x4e911ca7e)
	trials := e.size.repTrials
	if probe {
		trials = e.size.repProbeTrials
	}
	start := time.Now()
	for len(w.sweeps) == 0 || (!probe && time.Since(start) < d) {
		cfg := ssrank.Config{N: e.size.repN, Init: ssrank.InitRandom, Seed: r.Uint64()}
		t := time.Now()
		rep, err := ssrank.Replicate(cfg, ssrank.ReplicateOptions{Trials: trials, Workers: replicateWorkers})
		wall := time.Since(t)
		if e.chk.check(err == nil && rep.Trials == trials, "sweep of seed %d: %d of %d trials committed (err %v)", cfg.Seed, rep.Trials, trials, err) {
			for _, res := range rep.Results {
				e.chk.converged("sweep trial", res, nil)
			}
		}
		w.sweeps = append(w.sweeps, sweepOp{cfg: cfg, rep: rep, wall: wall})
	}
	w.peakMB = peakRSSMB(os.Getpid())
}

func (w *replicateSweep) interactions() int64 {
	var n int64
	for _, s := range w.sweeps {
		for _, res := range s.rep.Results {
			n += res.Interactions
		}
	}
	return n
}

// endToEnd reports trials per second, wall time per interaction across
// both workers (the median over sweeps), and the latency of one sweep.
func (w *replicateSweep) endToEnd() metrics {
	var wall time.Duration
	trials := 0
	lat := make([]time.Duration, len(w.sweeps))
	perStep := make([]float64, len(w.sweeps))
	for i, s := range w.sweeps {
		wall += s.wall
		trials += s.rep.Trials
		lat[i] = s.wall
		var steps int64
		for _, res := range s.rep.Results {
			steps += res.Interactions
		}
		perStep[i] = perUnit(s.wall, steps)
	}
	m := metrics{}
	m.set("ns_per_interaction", stats.Median(perStep), "ns", len(w.sweeps))
	m.set("results_per_s", float64(trials)/wall.Seconds(), "1/s", trials)
	m.set("latency_ms_p50", stats.Median(millis(lat)), "ms", len(lat))
	m.set("latency_ms_p90", stats.Quantile(millis(lat), 0.9), "ms", len(lat))
	m.set("peak_rss_mb", w.peakMB, "MB", 1)
	return m
}

// trace replays the first sweep twice: once on one worker, which gives
// the trial times (a serial sweep commits each trial as it ends) and
// the parallel efficiency of the two-worker sweep, and once trial by
// trial through the serial ladder, which splits each trial into set-up
// and the engine's phases.
func (w *replicateSweep) trace(e *env) (overhead, gap float64) {
	first := w.sweeps[0]
	var commits []time.Time
	id := e.tr.open(0, "replicate.sweep")
	start := time.Now()
	rep, err := ssrank.Replicate(first.cfg, ssrank.ReplicateOptions{
		Trials:  first.rep.Trials,
		Workers: 1,
		OnTrial: func(int, int, ssrank.Result) { commits = append(commits, time.Now()) },
	})
	serial := time.Since(start)
	e.tr.close(id, int64(rep.Trials))
	e.chk.check(err == nil && reflect.DeepEqual(rep.Results, first.rep.Results),
		"sweep of seed %d: the one-worker sweep's results differ from the two-worker sweep's", first.cfg.Seed)
	trialMS := make([]float64, len(commits))
	for i, c := range commits {
		trialMS[i] = float64(c.Sub(start).Nanoseconds()) / 1e6
		start = c
	}

	var total ladder
	var replay time.Duration
	setupUS := make([]float64, 0, len(first.rep.Results))
	for _, res := range first.rep.Results {
		t := time.Now()
		var l ladder
		steps, ranks := l.replay(e.tr, 0, "replicate.trial", res.Config)
		replay += time.Since(t)
		e.chk.check(steps == res.Interactions && slices.Equal(ranks, res.Ranks),
			"trial replay of seed %d: %d interactions, the trial had %d (or the final ranks differ)", res.Config.Seed, steps, res.Interactions)
		setupUS = append(setupUS, float64(l.setup.Nanoseconds())/1e3)
		total.add(&l)
	}
	e.layer.set("sim.trial_setup_us", stats.Median(setupUS), "us", len(setupUS))
	e.layer.set("replicate.parallel_eff", serial.Seconds()/(replicateWorkers*first.wall.Seconds()), "ratio", 1)
	e.layer.set("replicate.trial_ms_p50", stats.Median(trialMS), "ms", len(trialMS))
	// The untraced sweep ran on replicateWorkers cores, so the layer
	// times are set against that much core time.
	return ratio(replay, serial) - 1, 1 - ratio(total.busy(), replicateWorkers*first.wall)
}
