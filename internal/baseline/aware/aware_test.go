package aware

import (
	"math"
	"testing"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
)

func budget(n int, c float64) int64 {
	return int64(c * float64(n) * float64(n) * math.Log2(float64(n)))
}

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

func mustStabilize(t *testing.T, p *Protocol, states []State, seed uint64) int64 {
	t.Helper()
	r := sim.New[State](p, states, seed)
	steps, err := stabilize(t, r, p, budget(p.N(), 2000))
	if err != nil {
		t.Fatalf("n=%d seed=%d: not stabilized (ranked=%d resets=%d)",
			p.N(), seed, RankedCount(r.States()), p.Resets())
	}
	return steps
}

func TestStabilizesFromFreshStart(t *testing.T) {
	for _, n := range []int{4, 16, 64, 128} {
		for seed := uint64(1); seed <= 3; seed++ {
			p := New(n, DefaultParams())
			mustStabilize(t, p, p.InitialStates(), seed)
		}
	}
}

func TestStabilizesFromAdversarialConfigs(t *testing.T) {
	const n = 64
	p := New(n, DefaultParams())

	// All agents claim rank 1.
	states := make([]State, n)
	for i := range states {
		states[i] = Ranked(1)
	}
	mustStabilize(t, New(n, DefaultParams()), states, 2)

	// Two leaders with inconsistent counters.
	states = p.InitialStates()
	states[0] = State{Mode: ModeLeader, Coin: 0, Next: 5, Alive: p.LMax()}
	states[1] = State{Mode: ModeLeader, Coin: 1, Next: 9, Alive: p.LMax()}
	mustStabilize(t, New(n, DefaultParams()), states, 3)

	// Random ranks with holes and duplicates plus a stale leader.
	r := rng.New(77)
	states = make([]State, n)
	for i := range states {
		states[i] = Ranked(int32(1 + r.Intn(n)))
	}
	states[n-1] = State{Mode: ModeLeader, Coin: 0, Next: int32(2 + r.Intn(n-1)), Alive: p.LMax()}
	mustStabilize(t, New(n, DefaultParams()), states, 4)
}

func TestLeaderAssignsSequentially(t *testing.T) {
	p := New(8, DefaultParams())
	leader := State{Mode: ModeLeader, Coin: 0, Next: 2, Alive: p.LMax()}
	for want := int32(2); want <= 8; want++ {
		blank := State{Mode: ModeBlank, Coin: 1, Alive: p.LMax()}
		p.Transition(&leader, &blank)
		if blank.Mode != ModeRanked || blank.Rank != want {
			t.Fatalf("assignment %d: %+v", want, blank)
		}
	}
	if leader != Ranked(1) {
		t.Fatalf("leader after final assignment: %+v, want rank(1)", leader)
	}
}

func TestLeaderRefreshesOnTails(t *testing.T) {
	p := New(8, DefaultParams())
	leader := State{Mode: ModeLeader, Coin: 0, Next: 2, Alive: p.LMax()}
	blank := State{Mode: ModeBlank, Coin: 0, Alive: 2}
	p.Transition(&leader, &blank)
	if blank.Mode != ModeBlank || blank.Alive != p.LMax() {
		t.Fatalf("tails blank: %+v, want refreshed blank", blank)
	}
	if leader.Next != 2 {
		t.Fatalf("leader advanced on tails: %+v", leader)
	}
}

func TestErrorDetectionRules(t *testing.T) {
	cases := []struct {
		name string
		u, v State
	}{
		{"duplicate ranks", Ranked(5), Ranked(5)},
		{"two leaders", State{Mode: ModeLeader, Next: 2, Alive: 9}, State{Mode: ModeLeader, Next: 3, Alive: 9}},
		{"leader meets unassigned rank", State{Mode: ModeLeader, Next: 4, Alive: 9}, Ranked(7)},
		{"leader meets rank one", State{Mode: ModeLeader, Next: 4, Alive: 9}, Ranked(1)},
		{"ranked initiator meets leader claiming it", Ranked(7), State{Mode: ModeLeader, Next: 4, Alive: 9}},
	}
	for _, tc := range cases {
		p := New(8, DefaultParams())
		u, v := tc.u, tc.v
		p.Transition(&u, &v)
		if p.Resets() != 1 {
			t.Errorf("%s: resets = %d, want 1", tc.name, p.Resets())
		}
	}

	// Consistent leader/rank pairs do not reset.
	p := New(8, DefaultParams())
	u := State{Mode: ModeLeader, Next: 6, Alive: 9}
	v := Ranked(4)
	p.Transition(&u, &v)
	if p.Resets() != 0 {
		t.Fatal("consistent pair triggered a reset")
	}
}

func TestQuadraticLogGrowthNotCubic(t *testing.T) {
	// aware matches StableRanking's O(n² log n): normalized time must
	// stay bounded as n grows.
	if testing.Short() {
		t.Skip("growth check is slow")
	}
	norm := func(n int) float64 {
		p := New(n, DefaultParams())
		steps := mustStabilize(t, p, p.InitialStates(), 1)
		return float64(steps) / (float64(n) * float64(n) * math.Log2(float64(n)))
	}
	small, large := norm(32), norm(256)
	if large > 10*small+10 {
		t.Fatalf("normalized time grew from %.2f to %.2f; not O(n² log n)", small, large)
	}
}

func TestClosure(t *testing.T) {
	const n = 16
	p := New(n, DefaultParams())
	states := make([]State, n)
	for i := range states {
		states[i] = Ranked(int32(i + 1))
	}
	r := sim.New[State](p, states, 5)
	r.Run(int64(20 * n * n))
	for i, s := range r.States() {
		if s != Ranked(int32(i+1)) {
			t.Fatalf("agent %d changed in legal config: %+v", i, s)
		}
	}
	if p.Resets() != 0 {
		t.Fatalf("%d resets in legal config", p.Resets())
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(1, DefaultParams()) },
		func() { New(8, Params{}) },
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

func TestStabilizesFromRandomConfigs(t *testing.T) {
	// Self-stabilization over the full declared state space.
	const n = 64
	for seed := uint64(1); seed <= 8; seed++ {
		p := New(n, DefaultParams())
		states := p.RandomConfig(rng.New(seed * 31))
		if err := p.CheckInvariant(states); err != nil {
			t.Fatalf("seed %d: random config invalid: %v", seed, err)
		}
		mustStabilize(t, p, states, seed)
	}
}

func TestInvariantPreservedUnderTransitions(t *testing.T) {
	const n = 64
	p := New(n, DefaultParams())
	r := rng.New(5)
	for i := 0; i < 100000; i++ {
		u, v := p.RandomState(r), p.RandomState(r)
		p.Transition(&u, &v)
		if err := p.CheckInvariant([]State{u, v}); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}
