package sim

import (
	"errors"
	"testing"
)

// TransitionT gives the toy ranking protocol the TouchReporter
// capability: the projection is the state value itself (intRank).
func (p assign) TransitionT(u, v *int) (uTouched, vTouched bool) {
	if *u == 0 {
		*u = *v%p.n + 1
		return true, false
	} else if *u == *v {
		*v = *u%p.n + 1
		return false, true
	}
	return false, false
}

// cycler increments the initiator modulo m on every interaction — a
// protocol whose validity is transient (a permutation is destroyed by
// the very next increment), exercising exact first-hit detection under
// permanently dense touching.
type cycler struct{ m int }

func (p cycler) Transition(u, v *int) { *u = (*u + 1) % p.m }

func (p cycler) TransitionT(u, v *int) (uTouched, vTouched bool) {
	*u = (*u + 1) % p.m
	return true, false
}

// never touches nothing and never satisfies any rank condition.
type never struct{}

func (never) Transition(u, v *int)                            {}
func (never) TransitionT(u, v *int) (uTouched, vTouched bool) { return false, false }

// hitTime replays a run one interaction at a time and returns the true
// hitting time of valid.
func hitTime(t *testing.T, mk func() *Runner[int, assign], valid func([]int) bool, max int64) int64 {
	t.Helper()
	r := mk()
	var steps int64
	for !valid(r.States()) {
		r.Step()
		steps++
		if steps > max {
			t.Fatal("replay did not converge")
		}
	}
	return steps
}

func TestRunUntilCondTExactHit(t *testing.T) {
	// The touch-aware path must return exactly the per-interaction
	// hitting time, across seeds (different collision patterns per
	// window) and both toy protocols.
	const n = 16
	for seed := uint64(1); seed <= 12; seed++ {
		mk := func() *Runner[int, assign] { return New[int](assign{n}, make([]int, n), seed) }
		manual := hitTime(t, mk, permValid, 1_000_000)

		r := mk()
		steps, err := RunUntilCondT(r, NewRankCond(0, intRank), 1_000_000)
		if err != nil {
			t.Fatalf("seed %d: did not converge: %v", seed, err)
		}
		if steps != manual {
			t.Fatalf("seed %d: RunUntilCondT stopped at %d, true hitting time %d", seed, steps, manual)
		}
		// A valid ranking is silent for this protocol, so even though
		// the engine may have applied the remainder of the hit's
		// sub-batch, the configuration must be the hitting-time one.
		if !permValid(r.States()) {
			t.Fatalf("seed %d: final states not valid: %v", seed, r.States())
		}
	}
}

func TestRunUntilCondTTransientHit(t *testing.T) {
	// cycler's validity is destroyed by the next interaction, so a stop
	// path that only inspected the condition at batch boundaries would
	// overshoot. Every interaction touches, which also forces a
	// sub-batch split at every repeated initiator.
	const n = 3
	for seed := uint64(1); seed <= 8; seed++ {
		replay := New[int](cycler{n + 2}, make([]int, n), seed)
		var manual int64
		for !permValid(replay.States()) {
			replay.Step()
			manual++
			if manual > 1_000_000 {
				t.Fatal("replay did not converge")
			}
		}

		r := New[int](cycler{n + 2}, make([]int, n), seed)
		steps, err := RunUntilCondT(r, NewRankCond(0, intRank), 1_000_000)
		if err != nil {
			t.Fatalf("seed %d: did not converge: %v", seed, err)
		}
		if steps != manual {
			t.Fatalf("seed %d: RunUntilCondT stopped at %d, true hitting time %d", seed, steps, manual)
		}
	}
}

// stepUntil is the per-interaction reference stop loop: Step, then
// Update both endpoints, then Done — the definition RunUntilCondT's
// sub-batch fold must reproduce.
func stepUntil(r *Runner[int, assign], cond Condition[int], maxSteps int64) (int64, error) {
	cond.Init(r.States())
	for !cond.Done() {
		if r.Steps() >= maxSteps {
			return r.Steps(), ErrBudgetExhausted
		}
		as, bs := r.pairs.Window() // the pair Step consumes next
		a, b := int(as[0]), int(bs[0])
		r.Step()
		cond.Update(a, r.States())
		cond.Update(b, r.States())
	}
	return r.Steps(), nil
}

func TestRunUntilCondTMatchesRunUntilCond(t *testing.T) {
	// Same condition, same protocol, same seed: the touch-aware path and
	// the per-interaction reference loop must report the same hitting
	// time.
	const n = 32
	for seed := uint64(1); seed <= 6; seed++ {
		a := New[int](assign{n}, make([]int, n), seed)
		sa, err := stepUntil(a, NewRankCond(0, intRank), 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		b := New[int](assign{n}, make([]int, n), seed)
		sb, err := RunUntilCondT(b, NewRankCond(0, intRank), 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Fatalf("seed %d: reference loop %d vs RunUntilCondT %d", seed, sa, sb)
		}
	}
}

func TestRunUntilCondTImmediate(t *testing.T) {
	states := []int{2, 1, 3}
	r := New[int](assign{3}, states, 1)
	steps, err := RunUntilCondT(r, NewRankCond(0, intRank), 100)
	if err != nil || steps != 0 {
		t.Fatalf("already-valid start: steps=%d err=%v", steps, err)
	}
}

func TestRunUntilCondTBudget(t *testing.T) {
	r := New[int](never{}, make([]int, 4), 1)
	cond := NewRankCond(0, func(s *int) int { return 0 })
	steps, err := RunUntilCondT(r, cond, 777)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if steps != 777 || r.Steps() != 777 {
		t.Fatalf("steps = %d, Steps() = %d, want exactly the budget", steps, r.Steps())
	}
}

// TestCondLoopAcrossCalls checks that a CondLoop held across calls
// reports what a fresh RunUntilCondT reports on every call: after a
// call its budget cut, the held tracker is current; after a hit, which
// leaves the rest of its sub-batch unfolded, it rescans. cycler's
// validity is transient, so a tracker that kept those records stale
// would report a hit the configuration no longer holds.
func TestCondLoopAcrossCalls(t *testing.T) {
	const n = 3
	for seed := uint64(1); seed <= 8; seed++ {
		held := New[int](cycler{n + 2}, make([]int, n), seed)
		fresh := New[int](cycler{n + 2}, make([]int, n), seed)
		loop := NewCondLoop(held, NewRankCond(0, intRank))
		cond := NewRankCond(0, intRank)
		hits := 0
		for call := range 300 {
			maxSteps := held.Steps() + 1 + int64(call%5)*4
			got, gerr := loop.Run(maxSteps)
			want, werr := RunUntilCondT(fresh, cond, maxSteps)
			if got != want || gerr != werr || held.Steps() != fresh.Steps() {
				t.Fatalf("seed %d, call %d: held loop (%d, %v) at step %d, fresh (%d, %v) at step %d",
					seed, call, got, gerr, held.Steps(), want, werr, fresh.Steps())
			}
			if werr == nil {
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("seed %d: no call hit; the comparison after a hit is vacuous", seed)
		}
	}
}
