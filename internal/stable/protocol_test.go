package stable

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ssrank/internal/leaderelect"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
)

// stabilizationBudget returns c·n²·log₂ n interactions.
func stabilizationBudget(n int, c float64) int64 {
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

// mustStabilize runs the protocol from the given configuration until
// C_L and fails the test on budget exhaustion.
func mustStabilize(t *testing.T, p *Protocol, states []State, seed uint64, c float64) int64 {
	t.Helper()
	r := sim.New[State](p, states, seed)
	steps, err := stabilize(t, r, p, stabilizationBudget(p.N(), c))
	if err != nil {
		t.Fatalf("n=%d seed=%d: not stabilized after %d interactions (modes=%v, resets=%v)",
			p.N(), seed, steps, CountModes(r.States()), p.ResetBreakdown())
	}
	if err := p.CheckInvariant(r.States()); err != nil {
		t.Fatalf("n=%d seed=%d: invariant violated at stabilization: %v", p.N(), seed, err)
	}
	return steps
}

func TestStabilizesFromFreshStart(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64, 128} {
		for seed := uint64(1); seed <= 3; seed++ {
			p := New(n, DefaultParams())
			mustStabilize(t, p, p.InitialStates(), seed, 2000)
		}
	}
}

func TestStabilizesFromWorstCase(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		p := New(n, DefaultParams())
		mustStabilize(t, p, p.WorstCaseInit(), 1, 2000)
	}
}

func TestStabilizesFromArbitraryConfigurations(t *testing.T) {
	// The self-stabilization theorem: any initial configuration leads to
	// C_L. Random configurations drawn from the full state space are the
	// natural adversary.
	const n = 64
	for seed := uint64(1); seed <= 10; seed++ {
		p := New(n, DefaultParams())
		states := p.RandomConfig(rng.New(seed * 13))
		mustStabilize(t, p, states, seed, 2000)
	}
}

func TestStabilizesFromAllRankedSame(t *testing.T) {
	// Pathological: every agent claims rank 1.
	const n = 32
	p := New(n, DefaultParams())
	states := make([]State, n)
	for i := range states {
		states[i] = Ranked(1)
	}
	mustStabilize(t, p, states, 4, 2000)
}

func TestStabilizesFromAllWaiting(t *testing.T) {
	const n = 32
	p := New(n, DefaultParams())
	states := make([]State, n)
	for i := range states {
		states[i] = WaitState(uint8(i&1), p.WaitInit(), p.LMax())
	}
	mustStabilize(t, p, states, 5, 2000)
}

func TestStabilizesFromAllPhaseMax(t *testing.T) {
	const n = 32
	p := New(n, DefaultParams())
	states := make([]State, n)
	for i := range states {
		states[i] = PhaseState(uint8(i&1), int16(p.Phases().KMax()), 1)
	}
	mustStabilize(t, p, states, 6, 2000)
}

func TestClosureAndSilence(t *testing.T) {
	// Theorem 2's closure: a legal configuration never changes — the
	// protocol is silent. Run n² further interactions and diff.
	const n = 64
	p := New(n, DefaultParams())
	r := sim.New[State](p, p.InitialStates(), 7)
	if _, err := stabilize(t, r, p, stabilizationBudget(n, 2000)); err != nil {
		t.Fatal(err)
	}
	before := r.Snapshot()
	resetsBefore := p.Resets()
	r.Run(int64(n) * int64(n))
	for i, s := range r.States() {
		if s != before[i] {
			t.Fatalf("agent %d changed in a legal configuration: %v -> %v", i, before[i], s)
		}
	}
	if p.Resets() != resetsBefore {
		t.Fatalf("resets triggered in a legal configuration: %d new", p.Resets()-resetsBefore)
	}
}

func TestClosureFromSyntheticLegalConfig(t *testing.T) {
	// Closure must hold for *every* legal configuration, not only
	// reached ones: build permutations directly and check silence.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(60)
		p := New(n, DefaultParams())
		perm := r.Perm(n)
		states := make([]State, n)
		for i, rk := range perm {
			states[i] = Ranked(int32(rk + 1))
		}
		run := sim.New[State](p, states, seed^0xabc)
		run.Run(int64(4 * n * n))
		for i, s := range run.States() {
			if s != Ranked(int32(perm[i]+1)) {
				return false
			}
		}
		return p.Resets() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantPreservedFromRandomConfigs(t *testing.T) {
	// Property: from any configuration in the declared state space, the
	// transition function never leaves the state space.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(60)
		p := New(n, DefaultParams())
		states := p.RandomConfig(r)
		if err := p.CheckInvariant(states); err != nil {
			t.Logf("random config already invalid: %v", err)
			return false
		}
		run := sim.New[State](p, states, seed^0x5ca1ab1e)
		for i := 0; i < 50; i++ {
			run.Run(int64(n))
			if err := p.CheckInvariant(run.States()); err != nil {
				t.Logf("n=%d seed=%d: %v", n, seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem2Shape(t *testing.T) {
	// Stabilization interactions normalized by n² log₂ n must not grow
	// with n (Theorem 2). Medians over a few seeds to damp the reset
	// lottery's variance.
	if testing.Short() {
		t.Skip("shape check is slow")
	}
	median := func(n int) float64 {
		var times []float64
		for seed := uint64(1); seed <= 5; seed++ {
			p := New(n, DefaultParams())
			steps := mustStabilize(t, p, p.InitialStates(), seed, 3000)
			times = append(times, float64(steps)/(float64(n)*float64(n)*math.Log2(float64(n))))
		}
		for i := range times {
			for j := i + 1; j < len(times); j++ {
				if times[j] < times[i] {
					times[i], times[j] = times[j], times[i]
				}
			}
		}
		return times[len(times)/2]
	}
	small, large := median(32), median(256)
	if large > 10*small+10 {
		t.Fatalf("normalized stabilization grew from %.2f (n=32) to %.2f (n=256); not O(n² log n)", small, large)
	}
}

func TestSelfStabilizingLeaderElection(t *testing.T) {
	// §I: rank 1 designates the leader. After stabilization exactly one
	// agent holds rank 1 forever.
	const n = 64
	p := New(n, DefaultParams())
	r := sim.New[State](p, p.InitialStates(), 11)
	if _, err := stabilize(t, r, p, stabilizationBudget(n, 2000)); err != nil {
		t.Fatal(err)
	}
	leader := LeaderRank1(r.States())
	if leader < 0 {
		t.Fatal("no rank-1 agent in a legal configuration")
	}
	r.Run(int64(10 * n * n))
	if again := LeaderRank1(r.States()); again != leader {
		t.Fatalf("leader changed from %d to %d in a legal configuration", leader, again)
	}
}

func TestRandomStateStaysInStateSpace(t *testing.T) {
	p := New(100, DefaultParams())
	r := rng.New(3)
	for i := 0; i < 2000; i++ {
		s := p.RandomState(r)
		states := []State{s, s}
		if err := p.CheckInvariant(states[:1]); err != nil {
			t.Fatalf("RandomState produced invalid state: %v (%v)", err, s)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(1, DefaultParams()) },
		func() { New(8, Params{}) },
		func() { New(8, Params{CWait: 1, CLive: 1, RMaxFactor: 1, DMaxFactor: -1, LEBudgetFactor: 1}) },
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

// TestNewRejectsOversizedBounds: the counters are int16, so a factor
// whose bound ⌈factor·log₂ n⌉ leaves that range panics, naming the
// parameter and the bound, instead of wrapping; the largest factor the
// experiments use still constructs at every population size.
func TestNewRejectsOversizedBounds(t *testing.T) {
	for _, tc := range []struct {
		params Params
		want   []string
	}{
		{Params{CWait: 2, CLive: 2000, RMaxFactor: 4, DMaxFactor: 4, LEBudgetFactor: 8}, []string{"CLive = 2000", "L_max", "40000"}},
		{Params{CWait: 2, CLive: 4, RMaxFactor: 4, DMaxFactor: 4, LEBudgetFactor: 1700}, []string{"LEBudgetFactor = 1700", "LE budget"}},
		{Params{CWait: math.NaN(), CLive: 4, RMaxFactor: 4, DMaxFactor: 4, LEBudgetFactor: 8}, []string{"CWait = NaN", "waitInit"}},
		{Params{CWait: 2, CLive: 4, RMaxFactor: 4, DMaxFactor: math.Inf(1), LEBudgetFactor: 8}, []string{"DMaxFactor = +Inf", "D_max"}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Errorf("New(2^20, %+v) panicked with %q, want it to name %q", tc.params, msg, w)
					}
				}
			}()
			New(1<<20, tc.params)
		}()
	}
	big := Params{CWait: 32, CLive: 32, RMaxFactor: 32, DMaxFactor: 32, LEBudgetFactor: 32}
	for _, n := range []int{2, 3, 1 << 20, math.MaxInt32} {
		p := New(n, big)
		want := int16(32 * leaderelect.CeilLog2(n))
		if p.WaitInit() != want || p.LMax() != int32(want) || p.LEBudget() != want || p.RMax() != want || p.DMax() != int32(want) {
			t.Errorf("n=%d: bounds %d %d %d %d %d, want %d", n, p.WaitInit(), p.LMax(), p.LEBudget(), p.RMax(), p.DMax(), want)
		}
	}
}

func TestModeAndReasonStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeRanked: "ranked", ModeReset: "reset", ModeLE: "leader-electing",
		ModeWait: "waiting", ModePhase: "phase", Mode(99): "Mode(99)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, got, want)
		}
	}
	for r, want := range map[ResetReason]string{
		ReasonDuplicateRank: "duplicate-rank", ReasonTwoWaiting: "two-waiting",
		ReasonAliveExpired: "alive-expired", ReasonLEExpired: "le-expired",
		ReasonExternal: "external", ResetReason(99): "ResetReason(99)",
	} {
		if got := r.String(); got != want {
			t.Errorf("ResetReason(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestStateStrings(t *testing.T) {
	cases := map[string]State{
		"rank(3)":            Ranked(3),
		"reset(r=2,d=4,c=1)": ResetState(1, 2, 4),
		"wait(2,a=7,c=0)":    WaitState(0, 2, 7),
		"phase(5,a=1,c=1)":   PhaseState(1, 5, 1),
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
