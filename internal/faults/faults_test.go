package faults

import (
	"math"
	"testing"

	"ssrank/internal/baseline/aware"
	"ssrank/internal/baseline/cai"
	"ssrank/internal/baseline/interval"
	"ssrank/internal/baseline/sudo"
	"ssrank/internal/core"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
)

func TestCorruptCountAndIndices(t *testing.T) {
	r := rng.New(1)
	states := make([]int, 100)
	idx := Corrupt(states, 10, r, func(r *rng.RNG) int { return 1 })
	if len(idx) != 10 {
		t.Fatalf("corrupted %d indices", len(idx))
	}
	seen := map[int]bool{}
	changed := 0
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("index %d corrupted twice", i)
		}
		seen[i] = true
	}
	for _, s := range states {
		changed += s
	}
	if changed != 10 {
		t.Fatalf("%d agents changed, want 10", changed)
	}
}

func TestCorruptZeroIsNoop(t *testing.T) {
	r := rng.New(1)
	states := []int{1, 2, 3}
	Corrupt(states, 0, r, func(r *rng.RNG) int { return 99 })
	if states[0] != 1 || states[1] != 2 || states[2] != 3 {
		t.Fatal("Corrupt(0) changed states")
	}
}

func TestCorruptPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Corrupt(make([]int, 3), 4, rng.New(1), func(r *rng.RNG) int { return 0 })
}

func TestSwapPreservesMultiset(t *testing.T) {
	r := rng.New(2)
	states := []int{1, 2, 3, 4, 5, 6}
	sum := 21
	Swap(states, 3, r)
	got := 0
	for _, s := range states {
		got += s
	}
	if got != sum {
		t.Fatalf("multiset changed: sum %d -> %d", sum, got)
	}
}

func TestSwapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Swap(make([]int, 3), 2, rng.New(1))
}

func TestDuplicateCreatesEqualStates(t *testing.T) {
	r := rng.New(3)
	states := []int{10, 20, 30, 40}
	src, dst := Duplicate(states, r)
	if src == dst {
		t.Fatal("src == dst")
	}
	if states[dst] != states[src] {
		t.Fatalf("states[%d]=%d != states[%d]=%d", dst, states[dst], src, states[src])
	}
}

// stabilizeDesc runs r to the exact hitting time of the descriptor's
// stop condition through its tracker, and asserts Valid on the
// configuration it stops in — except for a transient stop (the loose
// protocol's leader uniqueness), which that configuration may already
// have left; its check is that the hit lies within the steps run.
func stabilizeDesc[S any, P sim.TouchReporter[S]](t *testing.T, d proto.Descriptor[S, P], p P, r *sim.Runner[S, P], maxSteps int64) error {
	t.Helper()
	start := r.Steps()
	hit, err := sim.RunUntilCondT(r, sim.DescCond(d, p), maxSteps)
	switch {
	case err != nil:
	case d.TransientStop && (hit < start || hit > r.Steps()):
		t.Fatalf("%s: stop reported at step %d, outside the %d..%d run", d.Name, hit, start, r.Steps())
	case !d.TransientStop && !d.Valid(r.States()):
		t.Fatalf("%s: stopped at %d but the configuration is not valid", d.Name, hit)
	}
	return err
}

// checkDescRecovery is the recovery property, stated once against the
// descriptor contract: stabilize from the default init, corrupt k
// agents with protocol-drawn random states, and re-stabilize within
// the registered budget. Protocols that are not self-stabilizing (or
// register no RandomState) make no such promise and are skipped — the
// skip itself documents the contract.
func checkDescRecovery[S any, P sim.TouchReporter[S]](t *testing.T, d proto.Descriptor[S, P], n, k int) {
	t.Helper()
	if !d.SelfStabilizing || d.RandomState == nil {
		t.Skipf("%s does not support corruption (self-stabilizing=%v)", d.Name, d.SelfStabilizing)
	}
	p := d.New(n)
	r := sim.New[S](p, d.Init(p, d.Inits[0], rng.New(11)), 5)
	budget := d.Budget(n)
	if err := stabilizeDesc(t, d, p, r, budget); err != nil {
		t.Fatalf("%s: initial stabilization failed: %v", d.Name, err)
	}

	rr := rng.New(42)
	Corrupt(r.States(), k, rr, func(r *rng.RNG) S { return d.RandomState(p, r) })
	if d.Valid(r.States()) {
		t.Skip("corruption happened to preserve validity; nothing to recover")
	}
	if err := stabilizeDesc(t, d, p, r, r.Steps()+budget); err != nil {
		t.Fatalf("%s: did not recover from corruption: %v", d.Name, err)
	}
}

// TestRecoveryAfterCorruption is the end-to-end fault-injection
// experiment in miniature (E10), run for every registered protocol
// through its descriptor: stabilize, corrupt a quarter of the
// population, verify re-stabilization within the registered budget.
// The loose protocol's stop is transient (leader uniqueness holds
// w.h.p., not forever), so its polled re-stabilization check bounds
// rather than pins the recovery — which is exactly its contract.
func TestRecoveryAfterCorruption(t *testing.T) {
	const n, k = 32, 8
	t.Run("stable", func(t *testing.T) { checkDescRecovery(t, stable.Describe(), n, k) })
	t.Run("space-efficient", func(t *testing.T) { checkDescRecovery(t, core.Describe(), n, k) })
	t.Run("cai", func(t *testing.T) { checkDescRecovery(t, cai.Describe(), n, k) })
	t.Run("aware", func(t *testing.T) { checkDescRecovery(t, aware.Describe(), n, k) })
	t.Run("interval", func(t *testing.T) { checkDescRecovery(t, interval.Describe(1.0), n, k) })
	t.Run("loose", func(t *testing.T) { checkDescRecovery(t, sudo.Describe(sudo.DefaultTimeoutFactor), n, k) })
}

// TestRecoveryAtScale keeps the original stable-only check at n = 64
// with a generous explicit budget — the flagship protocol's recovery
// is the paper's headline claim and deserves the larger population.
func TestRecoveryAtScale(t *testing.T) {
	const n = 64
	p := stable.New(n, stable.DefaultParams())
	r := sim.New[stable.State](p, p.InitialStates(), 5)
	budget := int64(2000 * float64(n) * float64(n) * math.Log2(float64(n)))
	if err := stabilizeDesc(t, stable.Describe(), p, r, budget); err != nil {
		t.Fatal("initial stabilization failed")
	}

	rr := rng.New(42)
	Corrupt(r.States(), n/4, rr, p.RandomState)
	if stable.Valid(r.States()) {
		t.Skip("corruption happened to preserve validity; nothing to recover")
	}
	if err := stabilizeDesc(t, stable.Describe(), p, r, r.Steps()+budget); err != nil {
		t.Fatalf("did not recover from corruption: %v", p.ResetBreakdown())
	}
}

func TestSwapKeepsRankingLegal(t *testing.T) {
	// The control experiment: swapping states preserves the permutation,
	// so the protocol must stay silent afterwards.
	const n = 32
	p := stable.New(n, stable.DefaultParams())
	states := make([]stable.State, n)
	for i := range states {
		states[i] = stable.Ranked(int32(i + 1))
	}
	Swap(states, 8, rng.New(7))
	if !stable.Valid(states) {
		t.Fatal("swap broke validity")
	}
	r := sim.New[stable.State](p, states, 8)
	r.Run(int64(10 * n * n))
	if !stable.Valid(r.States()) || p.Resets() != 0 {
		t.Fatalf("protocol disturbed a legal swapped configuration (resets=%d)", p.Resets())
	}
}
