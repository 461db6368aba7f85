package ssrank

// This file is the benchmark harness required by the reproduction: one
// testing.B benchmark per paper artifact / experiment (the E-index of
// DESIGN.md §4), each delegating to the generator in internal/expt at
// quick scale, plus micro- and macro-benchmarks of the protocols
// themselves. Full-scale figures are produced by cmd/figures; the
// benchmarks here keep `go test -bench=.` in the minutes range on one
// core while still executing every experiment end to end.

import (
	"math"
	"testing"

	"ssrank/internal/baseline/cai"
	"ssrank/internal/core"
	"ssrank/internal/expt"
	"ssrank/internal/sim"
	"ssrank/internal/sim/shard"
	"ssrank/internal/stable"
)

// benchFigure runs one experiment generator per iteration and keeps
// the result alive.
func benchFigure(b *testing.B, gen func(expt.Options) expt.Figure) {
	b.Helper()
	opts := expt.QuickOptions()
	var rows int
	for i := 0; i < b.N; i++ {
		opts.Seed = 0x5eed + uint64(i) // vary, stay deterministic
		fig := gen(opts)
		rows += len(fig.Rows)
	}
	if rows == 0 {
		b.Fatal("experiment produced no data")
	}
}

// One benchmark per experiment (paper figures first).

func BenchmarkFigure2(b *testing.B)           { benchFigure(b, expt.Figure2) }            // E1: Fig. 2
func BenchmarkFigure3(b *testing.B)           { benchFigure(b, expt.Figure3) }            // E2: Fig. 3
func BenchmarkCensus(b *testing.B)            { benchFigure(b, expt.CensusTable) }        // E3
func BenchmarkTheorem1Shape(b *testing.B)     { benchFigure(b, expt.Theorem1Shape) }      // E4
func BenchmarkTheorem2Shape(b *testing.B)     { benchFigure(b, expt.Theorem2Shape) }      // E5
func BenchmarkBaselines(b *testing.B)         { benchFigure(b, expt.BaselineComparison) } // E6
func BenchmarkTradeoff(b *testing.B)          { benchFigure(b, expt.TradeoffEpsilon) }    // E7
func BenchmarkAblationCWait(b *testing.B)     { benchFigure(b, expt.AblationCWait) }      // E8
func BenchmarkCoinBalance(b *testing.B)       { benchFigure(b, expt.CoinBalance) }        // E9
func BenchmarkFaultRecovery(b *testing.B)     { benchFigure(b, expt.FaultRecovery) }      // E10
func BenchmarkLeaderElect(b *testing.B)       { benchFigure(b, expt.LEShape) }            // E11
func BenchmarkFastLE(b *testing.B)            { benchFigure(b, expt.FastLESuccess) }      // E12
func BenchmarkEpidemic(b *testing.B)          { benchFigure(b, expt.EpidemicTail) }       // E13
func BenchmarkDeadConfig(b *testing.B)        { benchFigure(b, expt.DeadConfigReset) }    // E14
func BenchmarkAblationResetWave(b *testing.B) { benchFigure(b, expt.AblationResetWave) }  // E15
func BenchmarkAblationLEBudget(b *testing.B)  { benchFigure(b, expt.AblationLEBudget) }   // E16
func BenchmarkPhaseStructure(b *testing.B)    { benchFigure(b, expt.PhaseStructure) }     // E17

// BenchmarkStabilize is the macro-benchmark table: one full
// stabilization per op through the public facade, which stops at the
// exact hitting time via each protocol's tracker, reporting the
// interaction count alongside wall time. Budgets are the registered
// defaults except where an entry sets MaxInteractions.
func BenchmarkStabilize(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"stable-256", Config{Protocol: StableRanking, N: 256}},
		{"stable-worst-case-256", Config{Protocol: StableRanking, Init: InitWorstCase, N: 256}},
		{"space-efficient-256", Config{Protocol: SpaceEfficient, N: 256, MaxInteractions: int64(300 * 256 * 256 * math.Log2(256))}},
		{"aware-256", Config{Protocol: Aware, N: 256}},
		{"cai-64", Config{Protocol: Cai, N: 64}}, // Θ(n³): keep n modest
		{"interval-256", Config{Protocol: Interval, N: 256}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var total int64
			converged := 0
			for i := 0; i < b.N; i++ {
				cfg := bc.cfg
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg)
				total += res.Interactions
				if err == nil {
					converged++
				}
			}
			n := float64(bc.cfg.N)
			b.ReportMetric(float64(total)/float64(b.N), "interactions/op")
			b.ReportMetric(float64(total)/float64(b.N)/n/n, "n²-units/op")
			if converged == 0 {
				b.Fatal("no iteration converged")
			}
		})
	}
}

// Large-n engine benchmarks: raw interaction throughput at n = 10⁵,
// where the working set (~1.6 MB of agent state under uniform random
// access) blows past L2 and the serial engine goes memory-bound. The
// sharded runner's per-shard slabs restore locality and spread the
// transition work across cores; comparing the two ns/op numbers on the
// same machine gives the sharded speedup directly (both run one
// interaction per op). CI tracks both against BENCH_base.json.

const bigN = 100_000

func BenchmarkUnshardedRun(b *testing.B) {
	p := stable.New(bigN, stable.DefaultParams())
	r := sim.New[stable.State](p, p.InitialStates(), 1)
	b.ResetTimer()
	r.Run(int64(b.N))
}

func BenchmarkShardedRun(b *testing.B) {
	p := stable.New(bigN, stable.DefaultParams())
	r := shard.New[stable.State](p, p.InitialStates(), 1, 4, 0)
	b.ResetTimer()
	r.Run(int64(b.N))
}

// Scale benchmarks: the n = 10⁶ and n = 10⁷ regimes the sharded
// engine exists for (ROADMAP "single-run scale"). Shard counts are
// fixed (8) rather than auto-derived so ns/op is comparable across
// machines; workers default to one per CPU. The n = 10⁷ benchmark is
// the CI scale gate — a regression here means the coordinator stopped
// being O(S²)-cheap per batch and the large-n experiments quietly
// lost their headroom.

func BenchmarkUnshardedRun1e6(b *testing.B) {
	const n = 1_000_000
	p := stable.New(n, stable.DefaultParams())
	r := sim.New[stable.State](p, p.InitialStates(), 1)
	b.ResetTimer()
	r.Run(int64(b.N))
}

func BenchmarkShardedRun1e6(b *testing.B) {
	const n = 1_000_000
	p := stable.New(n, stable.DefaultParams())
	r := shard.New[stable.State](p, p.InitialStates(), 1, 8, 0)
	b.ResetTimer()
	r.Run(int64(b.N))
}

// BenchmarkAutoShardsRun1e6 runs the count shard.AutoShards picks for
// n = 10⁶ on this machine (serial on one core): CI's soft check
// compares it with BenchmarkUnshardedRun1e6 and warns when the rule
// users get is slower than the serial engine.
func BenchmarkAutoShardsRun1e6(b *testing.B) {
	const n = 1_000_000
	p := stable.New(n, stable.DefaultParams())
	s := shard.AutoShards(n, 0)
	if s == 1 {
		r := sim.New[stable.State](p, p.InitialStates(), 1)
		b.ResetTimer()
		r.Run(int64(b.N))
		return
	}
	r := shard.New[stable.State](p, p.InitialStates(), 1, s, 0)
	b.ResetTimer()
	r.Run(int64(b.N))
}

func BenchmarkShardedRun1e7(b *testing.B) {
	const n = 10_000_000
	p := stable.New(n, stable.DefaultParams())
	r := shard.New[stable.State](p, p.InitialStates(), 1, 8, 0)
	b.ResetTimer()
	r.Run(int64(b.N))
}

// BenchmarkShardedRunUntilExact1e5 measures the sharded exact-stop
// path at n = 10⁵: TransitionT touch recording in every batch unit
// plus the coordinator's barrier fold. b.N interactions from the fresh
// start stay far short of convergence under the CI benchtime, so the
// budget ends the run and ns/op is the pure per-interaction cost;
// comparing against BenchmarkShardedRun gives the tracking overhead
// directly. CI tracks it against BENCH_base.json.
func BenchmarkShardedRunUntilExact1e5(b *testing.B) {
	p := stable.New(bigN, stable.DefaultParams())
	r := shard.New[stable.State](p, p.InitialStates(), 1, 4, 0)
	cond := sim.NewRankCond(0, stable.RankOf)
	b.ResetTimer()
	if _, err := r.RunUntilExact(cond, int64(b.N)); err == nil {
		b.Fatal("converged inside the benchmark window; ns/op no longer measures stopping overhead")
	}
}

// Serial exact-stop overhead: b.N StableRanking interactions from the
// fresh start — far short of convergence at either population size
// under the CI benchtime, so the budget, not the stop condition, ends
// the run and ns/op measures the pure per-interaction cost of
// sim.RunUntilCondT (touch-reporting TransitionT plus tracker folding).
// CI tracks both against BENCH_base.json.

func benchRunUntilCond(b *testing.B, n int) {
	p := stable.New(n, stable.DefaultParams())
	r := sim.New[stable.State](p, p.InitialStates(), 1)
	b.ResetTimer()
	if _, err := sim.RunUntilCondT(r, sim.NewRankCond(0, stable.RankOf), int64(b.N)); err == nil {
		b.Fatal("converged inside the benchmark window; ns/op no longer measures stopping overhead")
	}
}

func BenchmarkRunUntilCond1e3(b *testing.B) { benchRunUntilCond(b, 1_000) }
func BenchmarkRunUntilCond1e5(b *testing.B) { benchRunUntilCond(b, bigN) }

// Micro-benchmarks: raw transition throughput per protocol.

func BenchmarkTransitionStable(b *testing.B) {
	p := stable.New(1024, stable.DefaultParams())
	r := sim.New[stable.State](p, p.InitialStates(), 1)
	b.ResetTimer()
	r.Run(int64(b.N))
}

func BenchmarkTransitionCore(b *testing.B) {
	p := core.New(1024, core.DefaultParams())
	r := sim.New[core.State](p, p.InitialStates(), 1)
	b.ResetTimer()
	r.Run(int64(b.N))
}

func BenchmarkTransitionCai(b *testing.B) {
	p := cai.New(1024)
	r := sim.New[cai.State](p, p.InitialStates(), 1)
	b.ResetTimer()
	r.Run(int64(b.N))
}

func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{N: 64, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
