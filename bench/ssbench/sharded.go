package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssrank"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/sim/shard"
	"ssrank/internal/stable"
)

// shardedLarge is the scale the sharded engine exists for: n = 2²²
// agents (a 168 MB slab, far beyond the caches) on AutoShards, run for a
// fixed budget. AutoShards is what users get, so a better shard-count
// rule shows up here.
type shardedLarge struct {
	inProcess
	runOps
	peakMB float64
}

func (w *shardedLarge) measure(e *env, d time.Duration, probe bool) {
	r := rng.New(e.seed ^ 0x5a4ded)
	budget := e.size.shardBudget
	if probe {
		budget = e.size.shardProbe
	}
	start := time.Now()
	for len(w.runOps) == 0 || (!probe && time.Since(start) < d) {
		cfg := ssrank.Config{N: e.size.shardN, Shards: ssrank.AutoShards, MaxInteractions: budget, Seed: r.Uint64()}
		freshHeap()
		t := time.Now()
		res, err := ssrank.Run(cfg)
		wall := time.Since(t)
		e.chk.budgeted("sharded run", res, err, budget)
		w.runOps = append(w.runOps, newRunOp(cfg, res, wall))
	}
	w.peakMB = peakRSSMB(os.Getpid())
}

func (w *shardedLarge) endToEnd() metrics { return runMetrics(w.runOps, w.peakMB) }

func (w *shardedLarge) trace(e *env) (overhead, gap float64) {
	var total exchange
	var traced, untraced time.Duration
	for _, op := range w.runOps {
		freshHeap()
		t := time.Now()
		x := exchange{}
		steps, ranks, err := x.replay(e.tr, op.res.Config)
		traced += time.Since(t)
		untraced += op.wall
		e.chk.check(err == nil && steps == op.res.Interactions && digestRanks(ranks) == op.ranks,
			"sharded replay of seed %d: %d interactions, the run had %d (err %v, or the final ranks differ)", op.cfg.Seed, steps, op.res.Interactions, err)
		total.add(&x)
	}
	total.report(e.layer)
	surface(e)
	return ratio(traced, untraced) - 1, 1 - ratio(total.busy(), untraced)
}

// exchange drives a sharded run's batches through the runner's exported
// phase API — ClassifyBatch, BeginBatch, ExecIntra, ExecCross,
// FinishBatch — with the clock read around each phase, and emits each
// batch's touch records in canonical unit order exactly as the runner's
// own ExecBatch does. It implements shard.BarrierExchange, so
// shard.RunExactBatches drives it through the same batch and fold loop
// Run uses, and the trajectory must match Run's.
type exchange struct {
	r        *shard.Runner[stable.State, *stable.Protocol]
	perShard []time.Duration // this batch's ExecIntra time per shard

	setup, classify, intra, cross, fold time.Duration
	// intraMean and intraMax sum, over batches, the mean and the max of
	// the per-shard ExecIntra times: the intra phase lasts as long as its
	// slowest shard, and the rest of that time the others wait.
	intraMean, intraMax time.Duration
	batches, recs       int64
}

// replay runs cfg (a normalized StableRanking config on the sharded
// engine) to its exact hitting time or budget.
func (x *exchange) replay(tr *tracer, cfg ssrank.Config) (int64, []int, error) {
	id := tr.open(0, "shard.run")
	start := time.Now()
	d := stable.Describe()
	p := d.New(cfg.N)
	init := d.Init(p, string(cfg.Init), rng.New(cfg.Seed^initSeedSalt))
	// The worker count is irrelevant: the exchange runs the phases itself.
	x.r = shard.New[stable.State](p, init, cfg.Seed, cfg.Shards, 1)
	x.perShard = make([]time.Duration, x.r.Shards())
	cond := sim.DescCond(d, p)
	cond.Init(x.r.States())
	f := shard.NewFolder[stable.State](cfg.N)
	f.Reset(x.r.States())
	x.setup = time.Since(start)
	var steps int64
	var err error
	if !cond.Done() {
		var hit int64
		steps, hit, err = shard.RunExactBatches[stable.State](x, f, cond, 0, cfg.MaxInteractions, shard.BatchPeriod(cfg.N))
		if hit >= 0 {
			steps = hit
		}
	}
	end := time.Now()
	tr.add(id, "sim.setup", start, start.Add(x.setup), 1, whole)
	tr.add(id, "shard.classify", start, end, x.batches, x.classify)
	tr.add(id, "shard.intra", start, end, x.batches, x.intra)
	tr.add(id, "shard.cross", start, end, x.batches, x.cross)
	tr.add(id, "shard.fold", start, end, x.recs, x.fold)
	tr.close(id, steps)
	return steps, d.Ranks(x.r.States()), err
}

// ExecBatch implements shard.BarrierExchange.
func (x *exchange) ExecBatch(b int, track bool, emit func(recs []shard.TouchRec[stable.State])) error {
	t0 := time.Now()
	if err := x.r.BeginBatch(x.r.ClassifyBatch(b), track, false); err != nil {
		return err
	}
	t1 := time.Now()
	x.execIntra()
	t2 := time.Now()
	// Cross units run on this goroutine: ExecCross fills endpoints into
	// one buffer per runner, so two units must not run at once.
	for _, round := range x.r.RoundSchedule() {
		for _, c := range round {
			x.r.ExecCross(c)
		}
	}
	t3 := time.Now()
	x.r.FinishBatch(b)
	if track {
		for s := range x.r.Shards() {
			x.recs += int64(len(x.r.IntraRecs(s)))
			emit(x.r.IntraRecs(s))
		}
		for _, round := range x.r.RoundSchedule() {
			for _, c := range round {
				x.recs += int64(len(x.r.CrossRecs(c)))
				emit(x.r.CrossRecs(c))
			}
		}
	}
	t4 := time.Now()
	x.batches++
	x.classify += t1.Sub(t0)
	x.intra += t2.Sub(t1)
	x.cross += t3.Sub(t2)
	x.fold += t4.Sub(t3)
	return nil
}

// execIntra runs every shard's intra pairs on one goroutine per core,
// as Run does with ShardWorkers 0, timing each shard.
func (x *exchange) execIntra() {
	shards := x.r.Shards()
	var next atomic.Int32
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), shards) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(next.Add(1)) - 1; s < shards; s = int(next.Add(1)) - 1 {
				t := time.Now()
				x.r.ExecIntra(s)
				x.perShard[s] = time.Since(t)
			}
		}()
	}
	wg.Wait()
	var sum, top time.Duration
	for _, t := range x.perShard {
		sum += t
		top = max(top, t)
	}
	x.intraMean += sum / time.Duration(shards)
	x.intraMax += top
}

func (x *exchange) add(o *exchange) {
	x.setup += o.setup
	x.classify += o.classify
	x.intra += o.intra
	x.cross += o.cross
	x.fold += o.fold
	x.intraMean += o.intraMean
	x.intraMax += o.intraMax
	x.batches += o.batches
	x.recs += o.recs
}

// busy is the time the exchange spent inside the phases it times.
func (x *exchange) busy() time.Duration {
	return x.setup + x.classify + x.intra + x.cross + x.fold
}

func (x *exchange) report(m metrics) {
	b := int(x.batches)
	us := func(d time.Duration) float64 { return perUnit(d, x.batches) / 1e3 }
	m.set("shard.classify_us_per_batch", us(x.classify), "us", b)
	m.set("shard.intra_us_per_batch", us(x.intra), "us", b)
	m.set("shard.cross_us_per_batch", us(x.cross), "us", b)
	m.set("shard.fold_us_per_batch", us(x.fold), "us", b)
	m.set("shard.intra_wait_frac", 1-ratio(x.intraMean, x.intraMax), "ratio", b)
	m.set("shard.touch_recs_per_batch", float64(x.recs)/float64(x.batches), "count", b)
}

// surface records Run's cost per interaction at the workload's
// population for every (Shards, ShardWorkers) pair up to four shards
// and two workers: the evidence an AutoShards rule should be derived
// from. Set-up is left out of the clock (NewSimulation), the run is
// RunUntilStable on the configured budget.
func surface(e *env) {
	seed := rng.New(e.seed ^ 0x5afe).Uint64()
	budget := e.size.surfaceBudget
	for _, s := range []int{1, 2, 4} {
		for _, w := range []int{1, 2} {
			name := fmt.Sprintf("shard.surface_ns.s%d.w%d", s, w)
			freshHeap()
			run, err := ssrank.NewSimulation(ssrank.Config{N: e.size.shardN, Seed: seed, Shards: s, ShardWorkers: w})
			if !e.chk.check(err == nil, "%s: %v", name, err) {
				continue
			}
			t := time.Now()
			converged := run.RunUntilStable(budget)
			wall := time.Since(t)
			e.tr.add(0, name, t, t.Add(wall), budget, whole)
			e.chk.check(!converged && run.Interactions() == budget,
				"%s: want %d interactions without converging, got %d", name, budget, run.Interactions())
			e.layer.set(name, perUnit(wall, budget), "ns", 1)
		}
	}
}
