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

// recount is RankCond's bookkeeping recomputed from scratch: the agents
// holding a rank in [1, m] and the rank values more than one holds.
func recount(states []int, m int) (assigned, dups int, count map[int]int) {
	count = map[int]int{}
	for _, s := range states {
		if s >= 1 && s <= m {
			assigned++
			if count[s]++; count[s] == 2 {
				dups++
			}
		}
	}
	return assigned, dups, count
}

// TestRankCondOneByteMultiplicities drives random Update sequences
// through the 1-byte multiplicities and their spill map, and after
// every step compares Done, assigned and dups, and each rank's count,
// with a full recount. Half the updates pile agents onto rank 1, so
// its count climbs past 300 and falls back through 255 again and
// again: the spill path in both directions.
func TestRankCondOneByteMultiplicities(t *testing.T) {
	const n, m = 600, 8
	states := make([]int, n)
	c := NewRankCond(m, intRank)
	c.Init(states)
	r := rng.New(5)
	top, spills := 0, 0
	for step := 0; step < 40000; step++ {
		i := r.Intn(n)
		switch phase := step / 4000 % 2; {
		case r.Intn(2) == 0 && phase == 0:
			states[i] = 1 // pile up
		case r.Intn(2) == 0:
			states[i] = 2 + r.Intn(m-1) // drain the pile
		default:
			states[i] = r.Intn(m+4) - 1 // out of range included
		}
		c.Update(i, states)
		assigned, dups, count := recount(states, m)
		if c.assigned != assigned || c.dups != dups || c.Done() != permValid(states) {
			t.Fatalf("step %d: assigned %d dups %d done %v, recount %d %d %v", step, c.assigned, c.dups, c.Done(), assigned, dups, permValid(states))
		}
		for rk := 1; rk <= m; rk++ {
			got := int(c.mult[rk])
			if got == spilled {
				got = int(c.spill[int32(rk)])
			}
			if got != count[rk] || (count[rk] < spilled) != (c.mult[rk] < spilled) {
				t.Fatalf("step %d: rank %d held %d times, tracker says mult %d spill %d", step, rk, count[rk], c.mult[rk], c.spill[int32(rk)])
			}
		}
		if len(c.spill) > 0 {
			spills++
		}
		top = max(top, count[1])
	}
	if top < 300 || spills == 0 {
		t.Fatalf("the pile reached %d agents and spilled on %d steps; the spill path went untested", top, spills)
	}
	// A fresh Init over a spilled configuration forgets the old spill.
	c.Init(make([]int, n))
	if len(c.spill) != 0 || c.assigned != 0 || c.dups != 0 {
		t.Fatalf("Init left spill %v, assigned %d, dups %d", c.spill, c.assigned, c.dups)
	}
}
