package sim

import (
	"testing"

	"ssrank/internal/rng"
)

// assign is a toy ranking protocol over int states: the initiator
// claims the smallest rank not obviously taken by copying v's view.
// It is only here to drive the condition tracker; correctness of the
// tracker is checked against the brute-force permutation scan.
type assign struct{ n int }

func (p assign) Transition(u, v *int) {
	if *u == 0 {
		*u = *v%p.n + 1
	} else if *u == *v {
		*v = *u%p.n + 1
	}
}

func permValid(states []int) bool {
	n := len(states)
	seen := make([]bool, n+1)
	for _, s := range states {
		if s < 1 || s > n || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

func intRank(s *int) int { return *s }

func TestRankCondMatchesBruteForce(t *testing.T) {
	// Random rank churn: after every mutation the tracker must agree
	// with the O(n) permutation scan, including transient duplicate
	// and out-of-range ranks.
	const n = 32
	states := make([]int, n)
	c := NewRankCond(0, intRank)
	c.Init(states)
	r := rng.New(11)
	for step := 0; step < 20000; step++ {
		i := r.Intn(n)
		states[i] = r.Intn(n+4) - 2 // includes 0, negatives, > n
		c.Update(i, states)
		if got, want := c.Done(), permValid(states); got != want {
			t.Fatalf("step %d: Done() = %v, brute force = %v (states %v)", step, got, want, states)
		}
	}
	// Drive into the valid configuration and confirm Done flips.
	for i := range states {
		states[i] = i + 1
		c.Update(i, states)
	}
	if !c.Done() {
		t.Fatal("Done() false on a complete permutation")
	}
}

func TestRankCondRelaxedRange(t *testing.T) {
	// m > n: all agents decided with distinct ranks in [1, m].
	states := []int{5, 1, 9}
	c := NewRankCond(10, intRank)
	c.Init(states)
	if !c.Done() {
		t.Fatal("distinct in-range ranks not accepted for m=10")
	}
	states[0] = 9 // duplicate
	c.Update(0, states)
	if c.Done() {
		t.Fatal("duplicate rank accepted")
	}
	states[0] = 11 // out of range = undecided
	c.Update(0, states)
	if c.Done() {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestRankCondReuseAcrossInit(t *testing.T) {
	c := NewRankCond(0, intRank)
	c.Init([]int{2, 1})
	if !c.Done() {
		t.Fatal("first Init: valid permutation rejected")
	}
	c.Init(make([]int, 4))
	if c.Done() {
		t.Fatal("second Init: stale state leaked through reuse")
	}
	c.Init([]int{1, 2, 3})
	if !c.Done() {
		t.Fatal("third Init (shrunk): valid permutation rejected")
	}
}
