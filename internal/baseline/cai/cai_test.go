package cai

import (
	"testing"
	"testing/quick"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
)

// stabilize runs r to the exact hitting time of Valid, through the
// descriptor's rank tracker, and asserts Valid on the configuration it
// stops in.
func stabilize(t *testing.T, r *sim.Runner[State, *Protocol], p *Protocol, maxSteps int64) (int64, error) {
	t.Helper()
	steps, err := sim.RunUntilCondT(r, sim.DescCond(Describe(), p), maxSteps)
	if err == nil && !Valid(r.States()) {
		t.Fatalf("n=%d: stopped at %d but the configuration is not valid", p.N(), steps)
	}
	return steps, err
}

func TestCollisionBumpsResponderOnly(t *testing.T) {
	p := New(8)
	u, v := State(3), State(3)
	p.Transition(&u, &v)
	if u != 3 || v != 4 {
		t.Fatalf("after collision: (%d, %d), want (3, 4)", u, v)
	}
}

func TestWrapAround(t *testing.T) {
	p := New(8)
	u, v := State(8), State(8)
	p.Transition(&u, &v)
	if v != 1 {
		t.Fatalf("label 8 bumped to %d, want wrap to 1", v)
	}
}

func TestDistinctLabelsSilent(t *testing.T) {
	p := New(8)
	u, v := State(2), State(5)
	p.Transition(&u, &v)
	if u != 2 || v != 5 {
		t.Fatalf("distinct labels changed: (%d, %d)", u, v)
	}
}

func TestStabilizesFromAllOnes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		p := New(n)
		r := sim.New[State](p, p.InitialStates(), uint64(n))
		budget := int64(200 * float64(n) * float64(n) * float64(n))
		if _, err := stabilize(t, r, p, budget); err != nil {
			t.Fatalf("n=%d: not a permutation within %d interactions", n, budget)
		}
	}
}

func TestStabilizesFromRandomLabels(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		p := New(n)
		states := make([]State, n)
		for i := range states {
			states[i] = State(1 + r.Intn(n))
		}
		run := sim.New[State](p, states, seed^0xfeed)
		_, err := stabilize(t, run, p, int64(500*n*n*n))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClosure(t *testing.T) {
	// A permutation never changes.
	const n = 16
	p := New(n)
	states := make([]State, n)
	for i := range states {
		states[i] = State(i + 1)
	}
	r := sim.New[State](p, states, 3)
	r.Run(int64(10 * n * n))
	if !Valid(r.States()) {
		t.Fatal("permutation destroyed")
	}
	for i, s := range r.States() {
		if s != State(i+1) {
			t.Fatalf("agent %d changed: %d", i, s)
		}
	}
}

func TestCubicGrowth(t *testing.T) {
	// The defining contrast with StableRanking: stabilization grows
	// like n³, so time/n² must grow roughly linearly in n.
	if testing.Short() {
		t.Skip("growth check is slow")
	}
	avgNorm := func(n int) float64 {
		var sum float64
		const trials = 3
		for seed := uint64(1); seed <= trials; seed++ {
			p := New(n)
			r := sim.New[State](p, p.InitialStates(), seed)
			steps, err := stabilize(t, r, p, int64(500*n*n*n))
			if err != nil {
				t.Fatalf("n=%d did not stabilize", n)
			}
			sum += float64(steps) / (float64(n) * float64(n))
		}
		return sum / trials
	}
	small, large := avgNorm(16), avgNorm(128)
	if large < 2*small {
		t.Fatalf("time/n² went from %.1f (n=16) to %.1f (n=128); expected clear superquadratic growth", small, large)
	}
}

func TestInvariantAndValidity(t *testing.T) {
	p := New(4)
	if err := p.CheckInvariant([]State{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariant([]State{0, 2, 3, 4}); err == nil {
		t.Fatal("label 0 accepted")
	}
	if Valid([]State{1, 1, 2, 3}) {
		t.Fatal("duplicate labels declared valid")
	}
	if !Valid([]State{4, 2, 3, 1}) {
		t.Fatal("permutation declared invalid")
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1) did not panic")
		}
	}()
	New(1)
}

func BenchmarkTransition(b *testing.B) {
	p := New(1024)
	r := sim.New[State](p, p.InitialStates(), 1)
	b.ResetTimer()
	r.Run(int64(b.N))
}
