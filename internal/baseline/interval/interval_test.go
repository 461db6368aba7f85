package interval

import (
	"math"
	"testing"
	"testing/quick"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
)

// stabilize runs r to the exact hitting time of Valid, through the
// descriptor's tracker (the interval-disjointness condition), and
// asserts Valid on the configuration it stops in.
func stabilize(t *testing.T, r *sim.Runner[State, *Protocol], p *Protocol, maxSteps int64) (int64, error) {
	t.Helper()
	steps, err := sim.RunUntilCondT(r, NewDisjointCond(p.M()), maxSteps)
	if err == nil && !Valid(r.States()) {
		t.Fatalf("n=%d: stopped at %d but the configuration is not valid", p.N(), steps)
	}
	return steps, err
}

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	cases := []struct {
		n    int
		eps  float64
		want int32
	}{
		{8, 0, 8},
		{8, 0.5, 16},
		{100, 0, 128},
		{100, 1.0, 256},
		{2, 0, 2},
		{2, MaxSpace/2 - 1, MaxSpace},
	}
	for _, tc := range cases {
		if got := New(tc.n, tc.eps).M(); got != tc.want {
			t.Errorf("New(%d, %v).M() = %d, want %d", tc.n, tc.eps, got, tc.want)
		}
	}
}

func TestEqualIntervalsSplit(t *testing.T) {
	p := New(4, 0)
	u := State{Lo: 1, Hi: 8}
	v := State{Lo: 1, Hi: 8}
	p.Transition(&u, &v)
	if u != (State{Lo: 1, Hi: 4}) || v != (State{Lo: 5, Hi: 8}) {
		t.Fatalf("split gave %v, %v", u, v)
	}
}

func TestContainmentEvades(t *testing.T) {
	p := New(4, 0)
	// v sits in u's left half: u must evade right.
	u := State{Lo: 1, Hi: 8}
	v := State{Lo: 1, Hi: 2}
	p.Transition(&u, &v)
	if u != (State{Lo: 5, Hi: 8}) || v != (State{Lo: 1, Hi: 2}) {
		t.Fatalf("evade gave %v, %v", u, v)
	}

	// v in u's right half: u evades left; roles swapped.
	u = State{Lo: 7, Hi: 8}
	w := State{Lo: 1, Hi: 8}
	p.Transition(&u, &w)
	if w != (State{Lo: 1, Hi: 4}) || u != (State{Lo: 7, Hi: 8}) {
		t.Fatalf("responder evade gave %v, %v", u, w)
	}
}

func TestDisjointIntervalsSilent(t *testing.T) {
	p := New(4, 0)
	u := State{Lo: 1, Hi: 2}
	v := State{Lo: 3, Hi: 4}
	p.Transition(&u, &v)
	if u != (State{Lo: 1, Hi: 2}) || v != (State{Lo: 3, Hi: 4}) {
		t.Fatalf("disjoint intervals changed: %v, %v", u, v)
	}
}

func TestEqualSingletonsRestart(t *testing.T) {
	p := New(4, 0)
	u := State{Lo: 3, Hi: 3}
	v := State{Lo: 3, Hi: 3}
	p.Transition(&u, &v)
	if u != (State{Lo: 3, Hi: 3}) {
		t.Fatalf("initiator moved: %v", u)
	}
	if v != (State{Lo: 1, Hi: 4}) {
		t.Fatalf("responder restarted at %v, want the root [1, 4]", v)
	}

	// Climbing at the root is a no-op.
	p2 := New(2, 0)
	a := State{Lo: 1, Hi: 2}
	b := State{Lo: 1, Hi: 2}
	p2.Transition(&a, &b)
	if a != (State{Lo: 1, Hi: 1}) || b != (State{Lo: 2, Hi: 2}) {
		t.Fatalf("root pair split wrong: %v, %v", a, b)
	}
}

func TestRanksDistinctAfterStabilization(t *testing.T) {
	for _, n := range []int{2, 8, 32, 100} {
		p := New(n, 1.0)
		r := sim.New[State](p, p.InitialStates(), uint64(n))
		if _, err := stabilize(t, r, p, int64(10000*n)); err != nil {
			t.Fatalf("n=%d: not stabilized", n)
		}
		seen := map[int32]bool{}
		for _, rk := range Ranks(r.States()) {
			if rk < 1 || rk > p.M() || seen[rk] {
				t.Fatalf("n=%d: bad rank %d", n, rk)
			}
			seen[rk] = true
		}
		if err := p.CheckInvariant(r.States()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInvariantPreservedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(60)
		p := New(n, 0.5)
		run := sim.New[State](p, p.InitialStates(), seed)
		for i := 0; i < 40; i++ {
			run.Run(int64(n))
			if err := p.CheckInvariant(run.States()); err != nil {
				t.Logf("n=%d: %v", n, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSlackSpeedsRanking(t *testing.T) {
	// The trade-off: larger identifier space, faster ranking. Compare
	// mean stabilization time at ε=0 (tight, when n is a power of two)
	// vs ε=3.
	if testing.Short() {
		t.Skip("trade-off measurement is slow")
	}
	// n = 100: power-of-two rounding gives m = 128 at ε = 0 (28% real
	// slack) and m = 512 at ε = 3.
	const n = 100
	mean := func(eps float64) float64 {
		var sum int64
		const trials = 10
		ok := 0
		for seed := uint64(1); seed <= trials; seed++ {
			p := New(n, eps)
			r := sim.New[State](p, p.InitialStates(), seed)
			steps, err := stabilize(t, r, p, int64(2000*n*n))
			if err != nil {
				continue
			}
			sum += steps
			ok++
		}
		if ok == 0 {
			t.Fatalf("eps=%v: no trial stabilized", eps)
		}
		return float64(sum) / float64(ok)
	}
	tight, loose := mean(0), mean(3)
	if loose >= tight {
		t.Fatalf("slack did not speed ranking: eps=0 took %.0f, eps=3 took %.0f", tight, loose)
	}
}

func TestZeroSlackConverges(t *testing.T) {
	// With m = n exactly (n a power of two, ε = 0) the protocol must
	// produce an exact permutation of the leaves; the singleton-climb
	// escape makes this reachable, at the cost of the Ω(n²) lower
	// bound for r = 0.
	const n = 32
	for seed := uint64(1); seed <= 5; seed++ {
		p := New(n, 0)
		r := sim.New[State](p, p.InitialStates(), seed)
		if _, err := stabilize(t, r, p, int64(5000*n*n)); err != nil {
			t.Fatalf("seed %d: zero-slack run did not converge", seed)
		}
		if err := p.CheckInvariant(r.States()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLowerBound(t *testing.T) {
	// r = 0 (exact range): n(n−1)/2.
	if got, want := LowerBound(100, 0), 4950.0; got != want {
		t.Fatalf("LowerBound(100, 0) = %v, want %v", got, want)
	}
	// Larger slack, smaller bound.
	if LowerBound(100, 100) >= LowerBound(100, 10) {
		t.Fatal("lower bound not decreasing in r")
	}
}

func TestValid(t *testing.T) {
	if !Valid([]State{{1, 2}, {3, 4}, {5, 8}}) {
		t.Fatal("disjoint intervals declared invalid")
	}
	if Valid([]State{{1, 4}, {3, 4}}) {
		t.Fatal("overlapping intervals declared valid")
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(1, 0) },
		func() { New(8, -0.1) },
		func() { New(8, math.NaN()) },
		func() { New(8, math.Inf(1)) },
		func() { New(8, 1e10) },
		func() { New(1<<27, 7.5) },
		func() { New(1<<20, 1100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
