package main

import (
	"os"
	"time"

	"ssrank"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/sim/slab"
	"ssrank/internal/stable"
)

// initSeedSalt is the facade's initialization salt (descInit in the
// ssrank package): a run's initial configuration draws its randomness
// from rng.New(Seed ^ initSeedSalt). The traced replays build initial
// configurations themselves and must seed them identically; their
// replay checks catch any drift.
const initSeedSalt = 0xc0ffee

// serialStabilize is the paper's headline measurement on one core:
// StableRanking from the Fig. 2 worst case, n = 1024, run after run to
// exact stabilization on the serial engine.
type serialStabilize struct {
	inProcess
	runOps
	peakMB float64
}

// measure runs to stabilization; a probe runs one whole stabilization,
// because ranks only start to move (and the tracker to work) late in a
// run from the worst case.
func (w *serialStabilize) measure(e *env, d time.Duration, probe bool) {
	r := rng.New(e.seed ^ 0x5e71a1)
	start := time.Now()
	for len(w.runOps) == 0 || (!probe && time.Since(start) < d) {
		cfg := ssrank.Config{N: e.size.serialN, Init: ssrank.InitWorstCase, Seed: r.Uint64(), Shards: 1}
		t := time.Now()
		res, err := ssrank.Run(cfg)
		wall := time.Since(t)
		e.chk.converged("serial run", res, err)
		w.runOps = append(w.runOps, newRunOp(cfg, res, wall))
	}
	w.peakMB = peakRSSMB(os.Getpid())
}

func (w *serialStabilize) endToEnd() metrics { return runMetrics(w.runOps, w.peakMB) }

func (w *serialStabilize) trace(e *env) (overhead, gap float64) {
	var total ladder
	var traced, untraced time.Duration
	for _, op := range w.runOps {
		t := time.Now()
		var l ladder
		steps, ranks := l.replay(e.tr, 0, "serial.run", op.res.Config)
		traced += time.Since(t)
		untraced += op.wall
		e.chk.check(steps == op.res.Interactions && digestRanks(ranks) == op.ranks,
			"serial replay of seed %d: %d interactions, the run had %d (or the final ranks differ)", op.cfg.Seed, steps, op.res.Interactions)
		total.add(&l)
	}
	total.report(e.layer)
	return ratio(traced, untraced) - 1, 1 - ratio(total.busy(), untraced)
}

// ladder is the serial engine's exact-stopping loop (sim.RunUntilCondT)
// rebuilt from its exported parts — the descriptor's initial
// configuration, an rng.PairBatch, stable's TransitionT and the
// descriptor's rank tracker — with the clock read around each phase of
// every 512-pair window: the refill (rng layer), the transitions
// (stable) and the tracker folds (sim). It must follow the engine's
// trajectory exactly; callers compare its hitting time and final ranks
// with the untraced run's.
type ladder struct {
	setup, refill, transition, fold time.Duration
	// windows refilled, pairs drawn, transitions applied, touched
	// interactions, and collision-free sub-batches folded.
	windows, pairs, applied, touches, subbatches int64
}

type touchRec struct {
	slot int32
	mask uint8
}

// replay runs cfg (a normalized StableRanking config on the serial
// engine) to its exact hitting time or budget, recording one span for
// the run with one child span per phase.
func (l *ladder) replay(tr *tracer, parent int, name string, cfg ssrank.Config) (int64, []int) {
	id := tr.open(parent, name)
	start := time.Now()
	d := stable.Describe()
	p := d.New(cfg.N)
	states := slab.Align(d.Init(p, string(cfg.Init), rng.New(cfg.Seed^initSeedSalt)))
	pairs := rng.NewPairBatch(rng.New(cfg.Seed), cfg.N)
	cond := sim.DescCond(d, p)
	cond.Init(states)
	l.setup = time.Since(start)
	steps := int64(0)
	if !cond.Done() {
		steps = l.run(p, states, pairs, cond, cfg.MaxInteractions)
	}
	end := time.Now()
	tr.add(id, "sim.setup", start, start.Add(l.setup), 1, whole)
	tr.add(id, "rng.refill", start, end, l.windows, l.refill)
	tr.add(id, "stable.transition", start, end, l.applied, l.transition)
	tr.add(id, "sim.fold", start, end, l.touches, l.fold)
	tr.close(id, l.applied)
	return steps, d.Ranks(states)
}

// run mirrors the engine's collision-free sub-batch loop: transitions
// run in a tight loop recording touched slots, and the records are
// folded into the tracker whenever a touched agent recurs and at the
// end of each window.
func (l *ladder) run(p *stable.Protocol, states []stable.State, pairs *rng.PairBatch, cond sim.Condition[stable.State], budget int64) int64 {
	marks := make([]uint32, len(states))
	epoch := uint32(1)
	var pending []touchRec
	fold := func(as, bs []int32) int32 {
		for _, t := range pending {
			if t.mask&1 != 0 {
				cond.Update(int(as[t.slot]), states)
			}
			if t.mask&2 != 0 {
				cond.Update(int(bs[t.slot]), states)
			}
			if cond.Done() {
				return t.slot
			}
		}
		return -1
	}
	var steps int64
	for steps < budget {
		t0 := time.Now()
		as, bs := pairs.Window()
		t1 := time.Now()
		l.pairs += int64(len(as))
		if rem := budget - steps; int64(len(as)) > rem {
			as, bs = as[:rem], bs[:rem]
		}
		pending = pending[:0]
		var folding time.Duration
		hit, used := int32(-1), len(as)
		for i, a := range as {
			b := bs[i]
			if len(pending) != 0 && (marks[a] == epoch || marks[b] == epoch) {
				tf := time.Now()
				hit = fold(as, bs)
				folding += time.Since(tf)
				l.subbatches++
				if hit >= 0 {
					used = i
					break
				}
				epoch++
				pending = pending[:0]
			}
			ut, vt := p.TransitionT(&states[a], &states[b])
			if ut || vt {
				var m uint8
				if ut {
					marks[a] = epoch
					m = 1
				}
				if vt {
					marks[b] = epoch
					m |= 2
				}
				pending = append(pending, touchRec{slot: int32(i), mask: m})
				l.touches++
			}
		}
		if hit < 0 && len(pending) != 0 {
			tf := time.Now()
			hit = fold(as, bs)
			folding += time.Since(tf)
			l.subbatches++
		}
		epoch++
		t2 := time.Now()
		l.windows++
		l.refill += t1.Sub(t0)
		l.transition += t2.Sub(t1) - folding
		l.fold += folding
		l.applied += int64(used)
		pairs.Advance(used)
		if hit >= 0 {
			return steps + int64(hit) + 1
		}
		steps += int64(used)
	}
	return steps
}

func (l *ladder) add(o *ladder) {
	l.setup += o.setup
	l.refill += o.refill
	l.transition += o.transition
	l.fold += o.fold
	l.windows += o.windows
	l.pairs += o.pairs
	l.applied += o.applied
	l.touches += o.touches
	l.subbatches += o.subbatches
}

// busy is the time the ladder spent inside the layers it times.
func (l *ladder) busy() time.Duration { return l.setup + l.refill + l.transition + l.fold }

// report records the serial engine's per-layer metrics.
func (l *ladder) report(m metrics) {
	w := int(l.windows)
	m.set("rng.window_ns_per_pair", perUnit(l.refill, l.pairs), "ns", w)
	m.set("stable.transition_ns", perUnit(l.transition, l.applied), "ns", w)
	m.set("sim.fold_ns_per_touch", perUnit(l.fold, l.touches), "ns", w)
	m.set("sim.touch_frac", float64(l.touches)/float64(l.applied), "ratio", w)
	m.set("sim.subbatches_per_window", float64(l.subbatches)/float64(l.windows), "count", w)
}

// perUnit is d in nanoseconds per unit of work (0 when there was none).
func perUnit(d time.Duration, units int64) float64 {
	if units == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(units)
}

// ratio is a/b as a float.
func ratio(a, b time.Duration) float64 { return float64(a) / float64(b) }
