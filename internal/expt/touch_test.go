package expt

import (
	"fmt"
	"testing"

	"ssrank/internal/baseline/aware"
	"ssrank/internal/baseline/cai"
	"ssrank/internal/baseline/interval"
	"ssrank/internal/baseline/sudo"
	"ssrank/internal/core"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/sim/shard"
	"ssrank/internal/stable"
)

// touchSchedules builds the pair schedules the touch property test
// drives every protocol through: a uniform random schedule plus
// adversarial ones that maximize agent reuse (the collision patterns
// the engine's sub-batch splitting must survive) and coverage.
func touchSchedules(n int, seed uint64) map[string][][2]int {
	r := rng.New(seed)
	random := make([][2]int, 6000)
	for i := range random {
		a, b := r.Pair(n)
		random[i] = [2]int{a, b}
	}
	repeat := make([][2]int, 2000)
	pingpong := make([][2]int, 2000)
	ring := make([][2]int, 4000)
	star := make([][2]int, 4000)
	for i := range repeat {
		repeat[i] = [2]int{0, 1}
		pingpong[i] = [2]int{i % 2, 1 - i%2}
	}
	for i := range ring {
		ring[i] = [2]int{i % n, (i + 1) % n}
	}
	for i := range star {
		star[i] = [2]int{0, 1 + i%(n-1)}
		if i%2 == 1 {
			star[i] = [2]int{star[i][1], 0}
		}
	}
	return map[string][][2]int{
		"random":    random,
		"repeat":    repeat,
		"ping-pong": pingpong,
		"ring":      ring,
		"star":      star,
		"all-pairs": sim.AllOrderedPairs(n),
	}
}

// checkTouchAndTracker is the property under test, for one protocol:
// along every schedule, (1) TransitionT's touch report must equal a
// recomputation of the tracked projection before vs after the
// interaction, and (2) feeding exactly the reported touches into the
// protocol's incremental tracker must keep Done() equal to the
// brute-force full-rescan predicate after every single step.
func checkTouchAndTracker[S any, K comparable, P sim.TouchReporter[S]](
	t *testing.T, p P, init func() []S, proj func(*S) K,
	cond sim.Condition[S], valid func([]S) bool,
) {
	t.Helper()
	for name, sched := range touchSchedules(len(init()), 0xbeef) {
		t.Run(name, func(t *testing.T) {
			states := init()
			cond.Init(states)
			if got, want := cond.Done(), valid(states); got != want {
				t.Fatalf("after Init: Done() = %v, full rescan = %v", got, want)
			}
			for step, pr := range sched {
				a, b := pr[0], pr[1]
				pa, pb := proj(&states[a]), proj(&states[b])
				ut, vt := p.TransitionT(&states[a], &states[b])
				if want := proj(&states[a]) != pa; ut != want {
					t.Fatalf("step %d (%d,%d): initiator touch reported %v, projection changed %v", step, a, b, ut, want)
				}
				if want := proj(&states[b]) != pb; vt != want {
					t.Fatalf("step %d (%d,%d): responder touch reported %v, projection changed %v", step, a, b, vt, want)
				}
				if ut {
					cond.Update(a, states)
				}
				if vt {
					cond.Update(b, states)
				}
				if got, want := cond.Done(), valid(states); got != want {
					t.Fatalf("step %d (%d,%d): Done() = %v, full rescan = %v", step, a, b, got, want)
				}
			}
		})
	}
}

// TestTouchReportingMatchesRescan checks, for every protocol with the
// TouchReporter capability, that touched-agent reporting and the
// incremental trackers agree with a full rescan after each step of
// random and adversarial schedules — the contract the exact-stopping
// engine path (sim.RunUntilCondT) is built on.
func TestTouchReportingMatchesRescan(t *testing.T) {
	const n = 24

	t.Run("stable", func(t *testing.T) {
		p := stable.New(n, stable.DefaultParams())
		for idx, init := range [][]stable.State{
			p.InitialStates(), p.WorstCaseInit(), p.RandomConfig(rng.New(0x7a5)),
		} {
			t.Run(fmt.Sprintf("init%d", idx), func(t *testing.T) {
				states := init
				checkTouchAndTracker(t, p,
					func() []stable.State { return append([]stable.State(nil), states...) },
					stable.RankOf, sim.NewRankCond(0, stable.RankOf), stable.Valid)
			})
		}
	})
	t.Run("core", func(t *testing.T) {
		p := core.New(n, core.DefaultParams())
		checkTouchAndTracker(t, p,
			func() []core.State { return p.InitialStates() },
			core.RankOf, sim.NewRankCond(0, core.RankOf), core.Valid)
	})
	t.Run("cai", func(t *testing.T) {
		p := cai.New(n)
		r := rng.New(0xca1)
		random := make([]cai.State, n)
		for i := range random {
			random[i] = cai.State(1 + r.Intn(n))
		}
		for idx, init := range [][]cai.State{p.InitialStates(), random} {
			t.Run(fmt.Sprintf("init%d", idx), func(t *testing.T) {
				states := init
				checkTouchAndTracker(t, p,
					func() []cai.State { return append([]cai.State(nil), states...) },
					cai.RankOf, sim.NewRankCond(0, cai.RankOf), cai.Valid)
			})
		}
	})
	t.Run("aware", func(t *testing.T) {
		p := aware.New(n, aware.DefaultParams())
		for idx, init := range [][]aware.State{
			p.InitialStates(), p.RandomConfig(rng.New(0xa3a)),
		} {
			t.Run(fmt.Sprintf("init%d", idx), func(t *testing.T) {
				states := init
				checkTouchAndTracker(t, p,
					func() []aware.State { return append([]aware.State(nil), states...) },
					aware.RankOf, sim.NewRankCond(0, aware.RankOf), aware.Valid)
			})
		}
	})
	t.Run("interval", func(t *testing.T) {
		for _, eps := range []float64{0, 1} {
			t.Run(fmt.Sprintf("eps=%v", eps), func(t *testing.T) {
				p := interval.New(n, eps)
				checkTouchAndTracker(t, p,
					func() []interval.State { return p.InitialStates() },
					func(s *interval.State) interval.State { return *s },
					interval.NewDisjointCond(p.M()), interval.Valid)
			})
		}
	})
	t.Run("sudo", func(t *testing.T) {
		p := sudo.New(n, 2)
		for idx, init := range [][]sudo.State{p.InitialStates(), p.AllLeaders()} {
			t.Run(fmt.Sprintf("init%d", idx), func(t *testing.T) {
				states := init
				checkTouchAndTracker(t, p,
					func() []sudo.State { return append([]sudo.State(nil), states...) },
					func(s *sudo.State) bool { return s.Leader },
					sudo.NewLeaderCond(), sudo.UniqueLeader)
			})
		}
	})
}

// rescanCond wraps an incremental tracker and cross-checks it against
// a brute-force full rescan, at every Done() call, of a private copy
// of the configuration: Init copies the states, and every Update(i)
// copies in agent i's state as the fold presents it. The sharded
// barrier fold swaps each record's at-touch states into the live slab
// only for the tracker's reads, so Update(i) sees exactly agent i's
// state at that canonical prefix and nothing else of the slab is
// meaningful. An agent's projection changes only at its touches, all
// of which are folded, so the copy is projection-faithful at every
// prefix and the rescan is exactly the predicate the tracker claims to
// maintain incrementally. Both engines consult Done() exactly once per
// interaction — after all of the interaction's Updates — so the check
// runs at interaction boundaries, where tracker and configuration must
// agree (between the two Updates of a both-touched interaction they
// legitimately differ). (The same wrapper would be UNSOUND on the
// serial engine: there Update reads the live array, which at fold
// time is already past the current sub-batch.)
type rescanCond[S any] struct {
	t      *testing.T
	inner  sim.Condition[S]
	valid  func([]S) bool
	states []S
	calls  int
}

func (c *rescanCond[S]) Init(states []S) {
	c.inner.Init(states)
	c.states = append(c.states[:0], states...)
}

func (c *rescanCond[S]) Update(i int, states []S) {
	c.calls++
	c.inner.Update(i, states)
	c.states[i] = states[i]
}

func (c *rescanCond[S]) Done() bool {
	got := c.inner.Done()
	if want := c.valid(c.states); got != want {
		c.t.Fatalf("after update %d: tracker Done() = %v, full rescan of the fold's configuration = %v", c.calls, got, want)
	}
	return got
}

// TestShardedFoldMatchesRescan drives the sharded barrier fold with a
// rescanning tracker at several shard counts (including an odd one,
// which exercises the tournament's bye rounds): every per-shard
// tracker delta folded at a barrier must leave the incremental state
// equal to a full rescan of the configuration the fold presents.
// Stable checks
// the silent path, interval the whole-state projection, and sudo the
// transient path (uniqueness can break again within the same batch).
func TestShardedFoldMatchesRescan(t *testing.T) {
	const n = 64
	for _, S := range []int{2, 4, 7} {
		S := S
		t.Run(fmt.Sprintf("S=%d", S), func(t *testing.T) {
			t.Run("stable", func(t *testing.T) {
				p := stable.New(n, stable.DefaultParams())
				d := stable.Describe()
				cond := &rescanCond[stable.State]{t: t, inner: sim.DescCond(d, p), valid: stable.Valid}
				r := shard.New[stable.State](p, p.WorstCaseInit(), 9, S, 2)
				hit, err := r.RunUntilExact(cond, d.Budget(n))
				if err != nil {
					t.Fatal(err)
				}
				if cond.calls == 0 {
					t.Fatal("tracker never updated; the run recorded no touches")
				}
				if hit < 1 || !stable.Valid(r.States()) {
					t.Fatalf("silent run stopped at %d without a valid final ranking", hit)
				}
			})
			t.Run("interval", func(t *testing.T) {
				p := interval.New(n, 1)
				cond := &rescanCond[interval.State]{t: t, inner: interval.NewDisjointCond(p.M()), valid: interval.Valid}
				r := shard.New[interval.State](p, p.InitialStates(), 9, S, 2)
				hit, err := r.RunUntilExact(cond, proto.BudgetN2LogN(3000)(n))
				if err != nil {
					t.Fatal(err)
				}
				if cond.calls == 0 {
					t.Fatal("tracker never updated; the run recorded no touches")
				}
				if hit < 1 || !interval.Valid(r.States()) {
					t.Fatalf("silent run stopped at %d without disjoint intervals", hit)
				}
			})
			t.Run("sudo", func(t *testing.T) {
				p := sudo.New(n, 2)
				cond := &rescanCond[sudo.State]{t: t, inner: sudo.NewLeaderCond(), valid: sudo.UniqueLeader}
				r := shard.New[sudo.State](p, p.AllLeaders(), 9, S, 2)
				// Transient condition: the final configuration may postdate
				// the hitting time, so only the hit itself is asserted.
				hit, err := r.RunUntilExact(cond, proto.BudgetN2(5000)(n))
				if err != nil {
					t.Fatal(err)
				}
				if cond.calls == 0 {
					t.Fatal("tracker never updated; the run recorded no touches")
				}
				if hit < 1 {
					t.Fatalf("everyone-a-leader init reported hit %d", hit)
				}
			})
		})
	}
}
