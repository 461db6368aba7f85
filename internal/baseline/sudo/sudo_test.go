package sudo

import (
	"testing"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
)

// elect runs r to the exact hitting time of a unique leader, through
// the descriptor's leader tracker. Uniqueness is transient, so the
// configuration the loop stops in may already have moved on; the check
// is on the returned step instead: a hit lies within the steps run.
func elect(t *testing.T, r *sim.Runner[State, *Protocol], maxSteps int64) (int64, error) {
	t.Helper()
	start := r.Steps()
	steps, err := sim.RunUntilCondT(r, NewLeaderCond(), maxSteps)
	if err == nil && (steps < start || steps > r.Steps()) {
		t.Fatalf("unique leader reported at step %d, outside the %d..%d run", steps, start, r.Steps())
	}
	return steps, err
}

func TestConvergesFromNoLeader(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		p := New(n, 8)
		r := sim.New[State](p, p.InitialStates(), uint64(n))
		steps, err := elect(t, r, int64(200*n*17))
		if err != nil {
			t.Fatalf("n=%d: no unique leader (have %d)", n, Leaders(r.States()))
		}
		if steps <= 0 {
			t.Fatal("zero steps")
		}
	}
}

func TestConvergesFromAllLeaders(t *testing.T) {
	const n = 64
	p := New(n, 8)
	r := sim.New[State](p, p.AllLeaders(), 3)
	// Duels need direct meetings: budget O(n² log n).
	if _, err := elect(t, r, int64(200*n*n)); err != nil {
		t.Fatalf("still %d leaders", Leaders(r.States()))
	}
}

func TestConvergesFromRandomConfigs(t *testing.T) {
	const n = 64
	p := New(n, 8)
	rr := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		states := make([]State, n)
		for i := range states {
			states[i] = State{Leader: rr.Bool(), Timeout: int32(rr.Intn(int(p.TMax()) + 1))}
		}
		r := sim.New[State](p, states, rr.Uint64())
		if _, err := elect(t, r, int64(500*n*n)); err != nil {
			t.Fatalf("trial %d: %d leaders", trial, Leaders(r.States()))
		}
	}
}

func TestHoldingTime(t *testing.T) {
	// Loose stabilization: a unique leader persists for a long time.
	// With factor 8 the leader must comfortably survive 200·n·log n
	// further interactions.
	//
	// Holding is measured from a safe configuration: a unique leader
	// and no drained timeout left to promote a second one. The first
	// hitting time of uniqueness is not one (from the drained start it
	// is step 1, with every other agent still drained), and no tracker
	// watches timeouts, so this stop polls.
	const n = 128
	p := New(n, 8)
	r := sim.New[State](p, p.InitialStates(), 5)
	safe := func(_ int64, ss []State) bool {
		for i := range ss {
			if ss[i].Timeout == 0 {
				return false
			}
		}
		return UniqueLeader(ss)
	}
	if _, err := sim.Poll(r, 0, int64(200*n*17), safe); err != nil {
		t.Fatal("did not converge")
	}
	for i := 0; i < 200; i++ {
		r.Run(int64(n) * 8)
		if !UniqueLeader(r.States()) {
			t.Fatalf("leadership lost after %d interactions", r.Steps())
		}
	}
}

func TestNotSilent(t *testing.T) {
	// The defining contrast with the paper's protocol: even with a
	// unique leader, states keep changing (timeouts churn) — the
	// protocol is NOT silent, which is how it evades the Ω(n² log n)
	// lower bound for silent protocols.
	const n = 32
	p := New(n, 8)
	r := sim.New[State](p, p.InitialStates(), 9)
	if _, err := elect(t, r, int64(200*n*17)); err != nil {
		t.Fatal("did not converge")
	}
	before := r.Snapshot()
	r.Run(int64(10 * n))
	changed := false
	for i, s := range r.States() {
		if s != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("configuration froze; loosely-stabilizing LE must keep churning")
	}
}

func TestTransitionRules(t *testing.T) {
	p := New(16, 2) // TMax = 8
	// Duel.
	u, v := State{Leader: true, Timeout: 3}, State{Leader: true, Timeout: 5}
	p.Transition(&u, &v)
	if !u.Leader || v.Leader || u.Timeout != 8 || v.Timeout != 8 {
		t.Fatalf("duel gave %+v, %+v", u, v)
	}
	// Refresh by leader in either role.
	u, v = State{Leader: true, Timeout: 2}, State{Timeout: 1}
	p.Transition(&u, &v)
	if u.Timeout != 8 || v.Timeout != 8 {
		t.Fatalf("leader refresh gave %+v, %+v", u, v)
	}
	// Decaying epidemic.
	u, v = State{Timeout: 6}, State{Timeout: 2}
	p.Transition(&u, &v)
	if u.Timeout != 5 || v.Timeout != 5 {
		t.Fatalf("decay gave %+v, %+v", u, v)
	}
	// Drain promotes the responder.
	u, v = State{Timeout: 1}, State{Timeout: 1}
	p.Transition(&u, &v)
	if !v.Leader || u.Leader || v.Timeout != 8 {
		t.Fatalf("promotion gave %+v, %+v", u, v)
	}
}

func TestInvariantPreserved(t *testing.T) {
	const n = 64
	p := New(n, 4)
	r := sim.New[State](p, p.InitialStates(), 11)
	for i := 0; i < 200; i++ {
		r.Run(int64(n))
		if err := p.CheckInvariant(r.States()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(1, 4) },
		func() { New(8, 0) },
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
