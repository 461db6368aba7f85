package core

import (
	"math"
	"testing"

	"ssrank/internal/leaderelect"
	"ssrank/internal/sim"
)

// budget returns a generous stabilization budget c·n²·log₂ n.
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

func runToValid(t *testing.T, n int, seed uint64) (int64, []State) {
	t.Helper()
	p := New(n, DefaultParams())
	r := sim.New[State](p, p.InitialStates(), seed)
	steps, err := stabilize(t, r, p, budget(n, 40))
	if err != nil {
		le, wait, phase, ranked := CountKinds(r.States())
		t.Fatalf("n=%d seed=%d: no valid ranking after %d steps (le=%d wait=%d phase=%d ranked=%d, contenders=%d)",
			n, seed, steps, le, wait, phase, ranked, contenders(r.States()))
	}
	return steps, r.States()
}

func contenders(states []State) int {
	c := 0
	for i := range states {
		if states[i].Kind == KindLE && states[i].LE.Contender {
			c++
		}
	}
	return c
}

func TestStabilizesToValidRanking(t *testing.T) {
	// The protocol is correct only w.h.p.; at small n the failure
	// probability is a non-negligible constant (the LE substrate can
	// elect two leaders). We therefore require a success majority per
	// n and full validity + silence whenever a run converges.
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		const seeds = 5
		fails := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			p := New(n, DefaultParams())
			r := sim.New[State](p, p.InitialStates(), seed)
			if _, err := stabilize(t, r, p, budget(n, 40)); err != nil {
				fails++
				continue
			}
			if !Silent(r.States()) {
				t.Fatalf("n=%d seed=%d: valid configuration not silent", n, seed)
			}
		}
		allowed := 2 // small-n slack
		if n >= 32 {
			allowed = 1
		}
		if fails > allowed {
			t.Fatalf("n=%d: %d/%d seeds failed to reach a valid ranking", n, fails, seeds)
		}
	}
}

func TestValidConfigurationIsStable(t *testing.T) {
	// Closure + silence: running further never changes a valid config.
	n := 64
	p := New(n, DefaultParams())
	r := sim.New[State](p, p.InitialStates(), 7)
	if _, err := stabilize(t, r, p, budget(n, 40)); err != nil {
		t.Fatal(err)
	}
	before := r.Snapshot()
	r.Run(int64(n) * int64(n))
	after := r.States()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("agent %d changed state after validity: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestConvergenceRateAcrossSeeds(t *testing.T) {
	// The protocol is correct w.h.p.; for moderate n nearly all seeds
	// must converge within the budget.
	if testing.Short() {
		t.Skip("multi-seed convergence is slow")
	}
	const n, seeds = 64, 30
	fail := 0
	for seed := uint64(100); seed < 100+seeds; seed++ {
		p := New(n, DefaultParams())
		r := sim.New[State](p, p.InitialStates(), seed)
		if _, err := stabilize(t, r, p, budget(n, 40)); err != nil {
			fail++
		}
	}
	if fail > 2 {
		t.Fatalf("%d/%d seeds failed to reach a valid ranking", fail, seeds)
	}
}

func TestStabilizationTimeOrder(t *testing.T) {
	// Theorem 1 shape: interactions/(n² log₂ n) should not grow with n.
	if testing.Short() {
		t.Skip("shape check is slow")
	}
	norm := func(n int) float64 {
		steps, _ := runToValid(t, n, 1)
		return float64(steps) / (float64(n) * float64(n) * math.Log2(float64(n)))
	}
	small, large := norm(32), norm(256)
	// Allow generous noise for single runs; catching Θ(n³)-like behavior
	// is the point.
	if large > 10*small+5 {
		t.Fatalf("normalized time grew from %.3f (n=32) to %.3f (n=256); not O(n² log n)", small, large)
	}
}

func TestInvariantHoldsThroughoutRun(t *testing.T) {
	n := 48
	p := New(n, DefaultParams())
	r := sim.New[State](p, p.InitialStates(), 3)
	for i := 0; i < 200; i++ {
		r.Run(int64(n))
		if err := p.CheckInvariant(r.States()); err != nil {
			t.Fatalf("after %d steps: %v", r.Steps(), err)
		}
	}
}

func TestUnawareLeaderUniqueness(t *testing.T) {
	// Throughout a converging run there is at most one waiting agent and
	// at most one ranked agent with rank ≤ width(k) for the minimum
	// phase k present (the unaware leader), barring LE failure.
	n := 64
	p := New(n, DefaultParams())
	r := sim.New[State](p, p.InitialStates(), 11)
	for r.Steps() < budget(n, 40) {
		r.Run(int64(n))
		states := r.States()
		_, wait, phase, _ := CountKinds(states)
		if wait > 1 {
			t.Fatalf("step %d: %d waiting agents", r.Steps(), wait)
		}
		if phase == 0 && wait == 0 {
			break
		}
	}
	if !Valid(r.States()) {
		t.Skip("run did not converge for this seed; uniqueness vacuous")
	}
}

func TestRankedAgentsNeverChangeRank(t *testing.T) {
	// Safety: once an agent is ranked, its rank never changes (the
	// protocol is "safe" in the sense of Gąsieniec et al.) — except the
	// leader cycling through 1..width(k), which re-enters waiting.
	// We check the weaker, exact property: ranks > width(1) are final.
	n := 32
	p := New(n, DefaultParams())
	r := sim.New[State](p, p.InitialStates(), 5)
	final := make(map[int]int32)
	threshold := p.Phases().Width(1) // leader's ranks are ≤ this
	for r.Steps() < budget(n, 40) {
		r.Run(1)
		for i, s := range r.States() {
			if s.Kind != KindRanked || s.Rank <= threshold {
				continue
			}
			if prev, ok := final[i]; ok && prev != s.Rank {
				t.Fatalf("agent %d changed assigned rank %d -> %d", i, prev, s.Rank)
			}
			final[i] = s.Rank
		}
		if Valid(r.States()) {
			break
		}
	}
}

func TestWaitInitMatchesFormula(t *testing.T) {
	for _, tc := range []struct {
		n     int
		cWait float64
		want  int32
	}{
		{256, 2, 16},
		{100, 2, 14},
		{2, 2, 2},
		{1024, 0.5, 5},
	} {
		p := New(tc.n, Params{CWait: tc.cWait})
		if got := p.WaitInit(); got != tc.want {
			t.Errorf("WaitInit(n=%d, c=%v) = %d, want %d", tc.n, tc.cWait, got, tc.want)
		}
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with CWait=0 did not panic")
		}
	}()
	New(8, Params{CWait: 0})
}

func TestInitialStatesAllLeaderElecting(t *testing.T) {
	p := New(17, DefaultParams())
	states := p.InitialStates()
	if len(states) != 17 {
		t.Fatalf("got %d states, want 17", len(states))
	}
	for i, s := range states {
		if s.Kind != KindLE {
			t.Fatalf("agent %d starts as %v, want leader-electing", i, s.Kind)
		}
		if !s.LE.Contender || !s.LE.InLottery {
			t.Fatalf("agent %d LE state not initial: %+v", i, s.LE)
		}
	}
}

func TestLeaderDoneTransitionsToWaiting(t *testing.T) {
	// A done leader interacting with anyone becomes the waiting agent
	// with the full wait counter (Protocol 1 lines 3–6).
	p := New(16, DefaultParams())
	u := State{Kind: KindLE, LE: leaderelect.State{Contender: true, Done: true}}
	v := PhaseState(1)
	p.Transition(&u, &v)
	if u.Kind != KindWait || u.Wait != p.WaitInit() {
		t.Fatalf("done leader became %v, want wait(%d)", u, p.WaitInit())
	}
	if v.Kind != KindPhase || v.Phase != 1 {
		t.Fatalf("partner changed unexpectedly: %v", v)
	}
}

func TestStartRankingEpidemic(t *testing.T) {
	// A non-done LE agent meeting a non-LE agent becomes a phase-1
	// agent (Protocol 1 lines 7–9), in either role.
	p := New(16, DefaultParams())
	le := p.LE()

	u := State{Kind: KindLE, LE: le.InitialState(0)}
	v := WaitState(3)
	p.Transition(&u, &v)
	if u.Kind != KindPhase || u.Phase != 1 {
		t.Fatalf("initiator LE agent became %v, want phase(1)", u)
	}

	u2 := RankedState(7)
	v2 := State{Kind: KindLE, LE: le.InitialState(1)}
	p.Transition(&u2, &v2)
	if v2.Kind != KindPhase || v2.Phase != 1 {
		t.Fatalf("responder LE agent became %v, want phase(1)", v2)
	}
	if u2.Kind != KindRanked || u2.Rank != 7 {
		t.Fatalf("ranked initiator changed: %v", u2)
	}
}
