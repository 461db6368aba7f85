package shard

import (
	"math"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"ssrank/internal/epidemic"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
	"ssrank/internal/stats"
)

// TestTournamentSchedule pins the combinatorial contract of the cross
// rounds: every unordered shard pair appears in exactly one round, and
// no shard appears twice within a round (the property that makes a
// round's classes safe to run concurrently).
func TestTournamentSchedule(t *testing.T) {
	for S := 2; S <= 9; S++ {
		seen := map[int]int{}
		for _, round := range tournament(S) {
			used := map[int]bool{}
			for _, c := range round {
				s, u := c/S, c%S
				if s >= u {
					t.Fatalf("S=%d: class %d is not canonical (s=%d, t=%d)", S, c, s, u)
				}
				if used[s] || used[u] {
					t.Fatalf("S=%d: shard reused within a round: %v", S, round)
				}
				used[s], used[u] = true, true
				seen[c]++
			}
		}
		for s := 0; s < S; s++ {
			for u := s + 1; u < S; u++ {
				if seen[s*S+u] != 1 {
					t.Fatalf("S=%d: class (%d,%d) scheduled %d times", S, s, u, seen[s*S+u])
				}
			}
		}
	}
}

// TestShardPartition checks the floor partition against its branch-free
// inverse for a grid of populations and shard counts: contiguous
// ranges, every shard ≥ 2 agents, and shardOf agreeing with the ranges.
func TestShardPartition(t *testing.T) {
	for _, n := range []int{4, 5, 7, 64, 100, 1000, 1001} {
		for _, S := range []int{1, 2, 3, 4, 7, 16, n} {
			p := stable.New(n, stable.DefaultParams())
			r := New[stable.State](p, p.InitialStates(), 1, S, 1)
			lo := 0
			for s, sh := range r.shards {
				if sh.lo != lo {
					t.Fatalf("n=%d S=%d: shard %d starts at %d, want %d", n, S, s, sh.lo, lo)
				}
				if sh.hi-sh.lo < 2 {
					t.Fatalf("n=%d S=%d: shard %d has %d agents", n, S, s, sh.hi-sh.lo)
				}
				for i := sh.lo; i < sh.hi; i++ {
					if got := r.shardOf(i); got != s {
						t.Fatalf("n=%d S=%d: shardOf(%d)=%d, want %d", n, S, i, got, s)
					}
				}
				lo = sh.hi
			}
			if lo != n {
				t.Fatalf("n=%d S=%d: shards cover [0,%d), want [0,%d)", n, S, lo, n)
			}
		}
	}
}

// jitterProto wraps a protocol with a data-dependent spin — an
// adversarial completion schedule for the phase workers (transition
// cost varies with the states it touches, so shards finish their phase
// work in wildly different, scheduling-dependent orders). It must not
// change any trajectory: the wrapped Transition is called exactly once
// per pair.
type jitterProto struct {
	inner *stable.Protocol
	sink  atomic.Int64
}

func (j *jitterProto) Transition(u, v *stable.State) {
	spin := (int(u.Rank())%13)*37 + (int(v.Phase())%5)*11
	x := 0
	for i := 0; i < spin; i++ {
		x += i
	}
	j.sink.Add(int64(x & 1)) // defeat dead-code elimination
	j.inner.Transition(u, v)
}

func (j *jitterProto) TransitionT(u, v *stable.State) (bool, bool) {
	spin := (int(u.Rank())%13)*37 + (int(v.Phase())%5)*11
	x := 0
	for i := 0; i < spin; i++ {
		x += i
	}
	j.sink.Add(int64(x & 1))
	return j.inner.TransitionT(u, v)
}

// TestWorkerCountInvariance is the headline determinism contract: for
// a fixed (seed, S) the trajectory is byte-identical at every worker
// count, including under the adversarial jitter schedule. Checked over
// S ∈ {1, 4} × workers ∈ {1, 8} (plus an odd shard count, which
// exercises the bye rounds of the tournament).
func TestWorkerCountInvariance(t *testing.T) {
	const (
		n     = 512
		seed  = 0xd15c0
		steps = 200_000
	)
	for _, S := range []int{1, 3, 4} {
		run := func(workers int, jitter bool) ([]stable.State, int64, int64) {
			p := stable.New(n, stable.DefaultParams())
			if jitter {
				r := New[stable.State](&jitterProto{inner: p}, p.WorstCaseInit(), seed, S, workers)
				r.Run(steps)
				return r.States(), r.Steps(), p.Resets()
			}
			r := New[stable.State](p, p.WorstCaseInit(), seed, S, workers)
			r.Run(steps)
			return r.States(), r.Steps(), p.Resets()
		}
		refStates, refSteps, refResets := run(1, false)
		if refSteps != steps {
			t.Fatalf("S=%d: executed %d steps, want %d", S, refSteps, steps)
		}
		for _, workers := range []int{1, 8} {
			for _, jitter := range []bool{false, true} {
				states, _, resets := run(workers, jitter)
				if !reflect.DeepEqual(states, refStates) {
					t.Fatalf("S=%d workers=%d jitter=%t: states differ from the 1-worker reference", S, workers, jitter)
				}
				if resets != refResets {
					t.Fatalf("S=%d workers=%d jitter=%t: resets=%d, want %d", S, workers, jitter, resets, refResets)
				}
			}
		}
	}
}

// TestShardCountChangesTrajectory documents that the determinism
// contract is per (seed, S): different shard counts consume different
// stream decompositions, so their trajectories differ (they agree only
// in law). A silent pass here would mean the shard streams are unused.
func TestShardCountChangesTrajectory(t *testing.T) {
	const n, seed, steps = 256, 7, 50_000
	run := func(S int) []stable.State {
		p := stable.New(n, stable.DefaultParams())
		r := New[stable.State](p, p.InitialStates(), seed, S, 1)
		r.Run(steps)
		return r.States()
	}
	if reflect.DeepEqual(run(2), run(4)) {
		t.Fatal("trajectories at S=2 and S=4 coincide; shard streams appear unused")
	}
}

// countProto counts every ordered (initiator, responder) agent pair it
// is asked to apply, via per-agent identities stored in the state and
// a shared atomic matrix — the instrument for the uniform-marginal
// law test.
type countProto struct {
	n      int
	counts []atomic.Int64
}

type countState struct{ id int32 }

func (c *countProto) Transition(u, v *countState) {
	c.counts[int(u.id)*c.n+int(v.id)].Add(1)
}

// TransitionT reports no touches: identities never change, so there is
// no condition-relevant projection to move.
func (c *countProto) TransitionT(u, v *countState) (bool, bool) {
	c.Transition(u, v)
	return false, false
}

// TestUniformPairLaw checks the sharded scheduler's per-slot law: each
// ordered pair of distinct agents must be hit with equal frequency,
// across intra and cross slots alike (the intra re-draw conditioning
// argument made executable). 6σ tolerance on a fixed seed keeps the
// test deterministic and non-flaky.
func TestUniformPairLaw(t *testing.T) {
	const (
		n       = 16
		S       = 4
		perPair = 3000
	)
	k := int64(n * (n - 1) * perPair)
	p := &countProto{n: n, counts: make([]atomic.Int64, n*n)}
	states := make([]countState, n)
	for i := range states {
		states[i].id = int32(i)
	}
	r := New[countState](p, states, 99, S, 2)
	r.Run(k)

	sigma := math.Sqrt(perPair)
	tol := int64(6 * sigma)
	var total int64
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			got := p.counts[a*n+b].Load()
			total += got
			if a == b {
				if got != 0 {
					t.Fatalf("self pair (%d,%d) hit %d times", a, b, got)
				}
				continue
			}
			if got < perPair-tol || got > perPair+tol {
				t.Errorf("pair (%d,%d): %d hits, want %d ± %d", a, b, got, perPair, tol)
			}
		}
	}
	if total != k {
		t.Fatalf("applied %d interactions, want %d", total, k)
	}
}

// TestObserveCadence verifies sim.Poll samples the sharded runner at
// the same steps as the serial one for a matching cadence and budget.
func TestObserveCadence(t *testing.T) {
	const n, every, maxSteps = 64, 100, 1050
	var sharded, serial []int64
	record := func(at *[]int64) func(int64, []stable.State) bool {
		return func(steps int64, _ []stable.State) bool {
			*at = append(*at, steps)
			return false
		}
	}
	ps, pu := stable.New(n, stable.DefaultParams()), stable.New(n, stable.DefaultParams())
	sim.Poll(New[stable.State](ps, ps.InitialStates(), 5, 4, 1), every, maxSteps, record(&sharded))
	sim.Poll(sim.New[stable.State](pu, pu.InitialStates(), 5), every, maxSteps, record(&serial))
	if !reflect.DeepEqual(sharded, serial) {
		t.Fatalf("observation cadence differs: sharded %v vs serial %v", sharded, serial)
	}
}

// TestRunUntilExactWorkerInvariance extends the headline determinism
// contract to exact stopping: for a fixed (seed, S) the reported
// hitting time and the final configuration are byte-identical at every
// worker count, including under the adversarial jitter schedule
// (records are written by the unit that owns them; the fold runs on
// the coordinator).
func TestRunUntilExactWorkerInvariance(t *testing.T) {
	const (
		n    = 256
		seed = 0xe4ac7
	)
	budget := stable.Describe().Budget(n)
	for _, S := range []int{3, 4} {
		run := func(workers int, jitter bool) (int64, []stable.State) {
			p := stable.New(n, stable.DefaultParams())
			cond := sim.DescCond(stable.Describe(), p)
			var r *Runner[stable.State, sim.TouchReporter[stable.State]]
			if jitter {
				r = New[stable.State, sim.TouchReporter[stable.State]](&jitterProto{inner: p}, p.WorstCaseInit(), seed, S, workers)
			} else {
				r = New[stable.State, sim.TouchReporter[stable.State]](p, p.WorstCaseInit(), seed, S, workers)
			}
			hit, err := r.RunUntilExact(cond, budget)
			if err != nil {
				t.Fatalf("S=%d workers=%d jitter=%t: %v", S, workers, jitter, err)
			}
			return hit, r.States()
		}
		refHit, refStates := run(1, false)
		if refHit < 2 {
			t.Fatalf("S=%d: worst-case init hit at %d; the invariance check is vacuous", S, refHit)
		}
		for _, workers := range []int{2, 8} {
			for _, jitter := range []bool{false, true} {
				hit, states := run(workers, jitter)
				if hit != refHit {
					t.Fatalf("S=%d workers=%d jitter=%t: hit %d, want %d", S, workers, jitter, hit, refHit)
				}
				if !reflect.DeepEqual(states, refStates) {
					t.Fatalf("S=%d workers=%d jitter=%t: final states differ from the 1-worker reference", S, workers, jitter)
				}
			}
		}
	}
}

// TestRunUntilExactBatchGroundTruth checks the fold's hitting time
// against an independent replay: a twin runner with the same
// (seed, S) stepped one native batch at a time. The stop condition
// is silent, so the full-scan Valid predicate must be false at every
// barrier before the reported hit and true at the first barrier at or
// past it, the hit must lie within one batch of that barrier, and the
// twin's configuration there must equal the exact runner's.
func TestRunUntilExactBatchGroundTruth(t *testing.T) {
	const (
		n    = 300
		seed = 11
		S    = 4
	)
	budget := stable.Describe().Budget(n)
	p := stable.New(n, stable.DefaultParams())
	r := New[stable.State](p, p.WorstCaseInit(), seed, S, 2)
	hit, err := r.RunUntilExact(sim.DescCond(stable.Describe(), p), budget)
	if err != nil {
		t.Fatal(err)
	}

	p2 := stable.New(n, stable.DefaultParams())
	tw := New[stable.State](p2, p2.WorstCaseInit(), seed, S, 1)
	batch := int64(tw.batch)
	for tw.Steps() < hit {
		if stable.Valid(tw.States()) {
			t.Fatalf("condition already held at barrier %d, before the reported hit %d", tw.Steps(), hit)
		}
		tw.Run(batch)
	}
	if !stable.Valid(tw.States()) {
		t.Fatalf("condition does not hold at barrier %d, the first at or past the reported hit %d", tw.Steps(), hit)
	}
	if tw.Steps()-hit >= batch {
		t.Fatalf("hit %d is more than one batch before its barrier %d", hit, tw.Steps())
	}
	if !reflect.DeepEqual(tw.States(), r.States()) {
		t.Fatal("twin replay and exact runner disagree on the final configuration")
	}
}

// neverCond never holds — the budget-exhaustion probe.
type neverCond struct{}

func (neverCond) Init([]stable.State)        {}
func (neverCond) Update(int, []stable.State) {}
func (neverCond) Done() bool                 { return false }

// alwaysCond holds from the start — the pre-satisfied probe.
type alwaysCond struct{}

func (alwaysCond) Init([]stable.State)        {}
func (alwaysCond) Update(int, []stable.State) {}
func (alwaysCond) Done() bool                 { return true }

// TestRunUntilExactSemantics pins the contract edges: a pre-satisfied
// condition stops before the first interaction, and budget exhaustion
// executes exactly maxSteps interactions (the final batch is truncated
// to the remaining budget) and reports sim.ErrBudgetExhausted.
func TestRunUntilExactSemantics(t *testing.T) {
	p := stable.New(64, stable.DefaultParams())
	r := New[stable.State](p, p.InitialStates(), 5, 4, 2)

	steps, err := r.RunUntilExact(alwaysCond{}, 1000)
	if err != nil || steps != 0 || r.Steps() != 0 {
		t.Fatalf("pre-satisfied stop: steps=%d runner=%d err=%v", steps, r.Steps(), err)
	}

	steps, err = r.RunUntilExact(neverCond{}, 1234)
	if err != sim.ErrBudgetExhausted {
		t.Fatalf("expected ErrBudgetExhausted, got %v", err)
	}
	if steps != 1234 || r.Steps() != 1234 {
		t.Fatalf("budget run executed %d steps (runner %d), want 1234", steps, r.Steps())
	}
}

// TestRunUntilExactSeedDeterminism pins that the exact run is a pure
// function of (seed, S): same seed ⇒ identical hit and configuration,
// different seed ⇒ a different trajectory.
func TestRunUntilExactSeedDeterminism(t *testing.T) {
	const n, S = 200, 4
	run := func(seed uint64) (int64, []stable.State) {
		p := stable.New(n, stable.DefaultParams())
		r := New[stable.State](p, p.WorstCaseInit(), seed, S, 2)
		hit, err := r.RunUntilExact(sim.DescCond(stable.Describe(), p), stable.Describe().Budget(n))
		if err != nil {
			t.Fatal(err)
		}
		return hit, r.States()
	}
	h1, s1 := run(5)
	h2, s2 := run(5)
	if h1 != h2 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed produced different exact runs: %d vs %d", h1, h2)
	}
	h3, s3 := run(6)
	if h1 == h3 && reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced an identical trajectory")
	}
}

// ksStatistic computes the two-sample Kolmogorov–Smirnov statistic
// D = sup |F̂₁ − F̂₂|.
func ksStatistic(a, b []float64) float64 {
	x, y := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(x)
	sort.Float64s(y)
	var d float64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if x[i] <= y[j] {
			i++
		} else {
			j++
		}
		if diff := math.Abs(float64(i)/float64(len(x)) - float64(j)/float64(len(y))); diff > d {
			d = diff
		}
	}
	return d
}

// epidemicCond is the one-way epidemic's completion as an incremental
// Condition: it counts the members not yet infected. Infection is
// monotone, so a touched member can only move from susceptible to
// infected.
type epidemicCond struct {
	infected []bool
	left     int
}

func (c *epidemicCond) Init(states []epidemic.State) {
	c.infected = make([]bool, len(states))
	c.left = 0
	for i, s := range states {
		c.infected[i] = s.Infected
		if s.Member && !s.Infected {
			c.left++
		}
	}
}

func (c *epidemicCond) Update(i int, states []epidemic.State) {
	if s := states[i]; s.Member && s.Infected && !c.infected[i] {
		c.infected[i] = true
		c.left--
	}
}

func (c *epidemicCond) Done() bool { return c.left == 0 }

// TestStatisticalEquivalence compares stabilization-time distributions
// between the sharded and unsharded engines at n = 10³ on the one-way
// epidemic (its absorbing time is this repo's cheapest stabilization
// statistic at that scale), both stopped at the exact hitting time
// (sim.RunUntilCondT and RunUntilExact). The engines follow different trajectories
// by construction, so the check is distributional: a two-sample KS
// test at α = 0.001 plus a 3-SE overlap check on the means. Seeds are
// fixed, so the test is deterministic — it guards against law-level
// bugs (mis-weighted intra/cross split, biased shard re-draws), not
// noise.
func TestStatisticalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("distributional comparison runs a few hundred epidemics")
	}
	const (
		n      = 1000
		trials = 120
	)
	budget := int64(100 * n * int(math.Log2(n)))
	completion := func(trial int, sharded bool) float64 {
		seed := uint64(0xeb1d + trial)
		states := epidemic.InitialStates(n, n)
		if sharded {
			r := New[epidemic.State](epidemic.Protocol{}, states, seed, 4, 2)
			steps, err := r.RunUntilExact(&epidemicCond{}, budget)
			if err != nil {
				t.Fatalf("sharded trial %d never completed", trial)
			}
			return float64(steps)
		}
		r := sim.New[epidemic.State](epidemic.Protocol{}, states, seed)
		steps, err := sim.RunUntilCondT(r, &epidemicCond{}, budget)
		if err != nil {
			t.Fatalf("serial trial %d never completed", trial)
		}
		return float64(steps)
	}

	var serial, sharded []float64
	for i := 0; i < trials; i++ {
		serial = append(serial, completion(i, false))
		sharded = append(sharded, completion(i, true))
	}

	// KS critical value c(α)·sqrt(2/m) with c(0.001) ≈ 1.95, m = 120.
	d := ksStatistic(serial, sharded)
	if crit := 1.95 * math.Sqrt(2.0/trials); d > crit {
		t.Errorf("KS statistic %.4f exceeds the α=0.001 critical value %.4f", d, crit)
	}

	m1, ci1 := stats.MeanCI95(serial)
	m2, ci2 := stats.MeanCI95(sharded)
	// 3-SE limit, expressed through the CI95 half-widths (= 1.96·SE).
	if diff, lim := math.Abs(m1-m2), 3/1.96*math.Hypot(ci1, ci2); diff > lim {
		t.Errorf("mean completion differs by %.1f interactions (serial %.1f vs sharded %.1f), beyond the 3-SE limit %.1f",
			diff, m1, m2, lim)
	}
}
