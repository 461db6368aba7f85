package epidemic

import (
	"testing"
	"testing/quick"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
)

func TestInitialStates(t *testing.T) {
	states := InitialStates(10, 4)
	if !states[0].Member || !states[0].Infected {
		t.Fatalf("agent 0: %+v", states[0])
	}
	members, infected := 0, 0
	for _, s := range states {
		if s.Member {
			members++
		}
		if s.Infected {
			infected++
		}
	}
	if members != 4 || infected != 1 {
		t.Fatalf("members=%d infected=%d", members, infected)
	}
}

func TestInitialStatesPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { InitialStates(5, 0) },
		func() { InitialStates(5, 6) },
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

func TestTransitionOneWay(t *testing.T) {
	p := Protocol{}
	inf := State{Member: true, Infected: true}
	sus := State{Member: true}
	out := State{}

	u, v := inf, sus
	p.Transition(&u, &v)
	if !v.Infected {
		t.Fatal("responder not infected by infected initiator")
	}

	// One-way: infected responder does not infect the initiator.
	u, v = sus, inf
	p.Transition(&u, &v)
	if u.Infected {
		t.Fatal("initiator infected by responder (epidemic must be one-way)")
	}

	// Non-members neither transmit nor receive.
	u, v = inf, out
	p.Transition(&u, &v)
	if v.Infected {
		t.Fatal("non-member infected")
	}
}

func TestEpidemicCompletesViaEngine(t *testing.T) {
	const n, m = 128, 50
	r := sim.New[State](Protocol{}, InitialStates(n, m), 3)
	steps, err := sim.Poll(r, 0, 10_000_000, func(_ int64, ss []State) bool { return Done(ss) })
	if err != nil {
		t.Fatalf("epidemic incomplete: %d infected of %d", InfectedCount(r.States()), m)
	}
	if steps <= 0 {
		t.Fatal("zero steps")
	}
}

func TestCompletionTimeWithinLemma14Bound(t *testing.T) {
	// Lemma 14 with γ = 1: violation probability ≤ 2/n per trial.
	const n = 256
	const gamma = 1.0
	for _, m := range []int{2, 16, 64, 256} {
		r := rng.New(uint64(m))
		bound := Bound(n, m, gamma)
		violations := 0
		const trials = 20
		for i := 0; i < trials; i++ {
			if float64(CompletionTime(n, m, r)) > bound {
				violations++
			}
		}
		if violations > 1 {
			t.Fatalf("m=%d: %d/%d trials exceeded the Lemma 14 bound %.0f", m, violations, trials, bound)
		}
	}
}

func TestCompletionTimeScalesInverselyWithM(t *testing.T) {
	// Restricting an epidemic to a small subset slows it by ≈ n/m — the
	// reason waiting phases lengthen as ranking progresses (§IV-A).
	const n = 512
	r := rng.New(7)
	avg := func(m int) float64 {
		var sum int64
		const trials = 10
		for i := 0; i < trials; i++ {
			sum += CompletionTime(n, m, r)
		}
		return float64(sum) / trials
	}
	full, eighth := avg(n), avg(n/8)
	if eighth < 2*full {
		t.Fatalf("OWE(n, n/8) = %.0f not meaningfully slower than OWE(n, n) = %.0f", eighth, full)
	}
}

func TestBoundEdgeCases(t *testing.T) {
	if b := Bound(100, 1, 1); b != 0 {
		t.Fatalf("Bound(m=1) = %v, want 0", b)
	}
	if b := Bound(100, 50, 1); b <= 0 {
		t.Fatalf("Bound = %v, want positive", b)
	}
}

func TestInfectedNeverDecreasesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 8 + r.Intn(100)
		m := 2 + r.Intn(n-1)
		states := InitialStates(n, m)
		run := sim.New[State](Protocol{}, states, seed)
		prev := 1
		for i := 0; i < 50; i++ {
			run.Run(int64(n))
			cur := InfectedCount(run.States())
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
