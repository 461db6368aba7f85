package shard

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
)

// swapCond records what the fold presents to each Update and reports
// Done after a fixed number of Updates.
type swapCond struct {
	t       *testing.T
	want    map[int]stable.State // agent → the state Update must read
	updates int
	doneAt  int
}

func (c *swapCond) Init([]stable.State) {}

func (c *swapCond) Update(i int, states []stable.State) {
	if states[i] != c.want[i] {
		c.t.Fatalf("update %d: Update(%d) reads %+v, want the recorded %+v", c.updates, i, states[i], c.want[i])
	}
	c.updates++
}

func (c *swapCond) Done() bool { return c.updates >= c.doneAt }

// TestFoldLeavesLiveStates folds synthetic records against a live
// slab: each Update reads its agent's recorded state, and after the
// fold the slab is byte-identical to what it was before.
func TestFoldLeavesLiveStates(t *testing.T) {
	const n = 64
	p := stable.New(n, stable.DefaultParams())
	states := p.WorstCaseInit()
	before := append([]stable.State(nil), states...)
	g := rng.New(3)
	var recs []TouchRec[stable.State]
	for pos := int32(0); pos < 40; pos++ {
		a := int32(g.Intn(n))
		b := int32(g.Intn(n - 1))
		if b >= a {
			b++
		}
		// Recorded states that differ from every live state.
		sa, sb := stable.Ranked(n+1+pos), stable.Ranked(2*n+1+pos)
		recs = append(recs, newTouchRec(pos, pos%3 != 1, pos%3 != 0, a, b, sa, sb))
	}
	f := NewFolder[stable.State](n)
	f.Reset(states)
	cond := &swapCond{t: t, doneAt: 1 << 30}
	cond.want = map[int]stable.State{}
	for i := range recs {
		// Fold one record at a time so want names its states.
		r := recs[i : i+1]
		cond.want[int(r[0].A)], cond.want[int(r[0].B)] = r[0].SA, r[0].SB
		if hit := f.Fold(cond, r); hit != -1 {
			t.Fatalf("record %d: Fold reported hit %d for a condition that never holds", i, hit)
		}
	}
	if !reflect.DeepEqual(states, before) {
		t.Fatal("Fold left the live states changed")
	}
	// A hit stops the fold at the record after whose Updates the
	// condition first held, and still restores that record's slots.
	cond.want, cond.updates, cond.doneAt = map[int]stable.State{}, 0, 2
	rs := []TouchRec[stable.State]{
		newTouchRec(7, true, false, 1, 2, recs[0].SA, recs[0].SB),
		newTouchRec(9, true, false, 3, 4, recs[1].SA, recs[1].SB),
		newTouchRec(12, true, false, 5, 6, recs[2].SA, recs[2].SB),
	}
	for _, r := range rs {
		cond.want[int(r.A)] = r.SA
	}
	if hit := f.Fold(cond, rs); hit != 9 {
		t.Fatalf("Fold hit at position %d, want 9", hit)
	}
	if !reflect.DeepEqual(states, before) {
		t.Fatal("Fold left the live states changed at a hit")
	}
}

// TestRunUntilExactAllocation bounds what an exact-stopping sharded run
// allocates: the fold reads the live slab, so the run must allocate
// far less than a second population of n·sizeof(S) bytes. The least
// of three measurements discounts what other goroutines allocate.
func TestRunUntilExactAllocation(t *testing.T) {
	const n = 1 << 16
	slabBytes := uint64(n) * uint64(unsafe.Sizeof(stable.State{}))
	p := stable.New(n, stable.DefaultParams())
	// One tracker for every run: Init reuses its per-agent arrays, so
	// only the first run pays for them.
	cond := sim.DescCond(stable.Describe(), p)
	least := ^uint64(0)
	for range 3 {
		r := New[stable.State](p, p.InitialStates(), 5, 4, 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.RunUntilExact(cond, int64(BatchPeriod(n))); err != sim.ErrBudgetExhausted {
			t.Fatalf("RunUntilExact: %v, want an exhausted budget", err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > slabBytes/8 {
		t.Fatalf("an exact run at n = %d allocated %d B, more than an eighth of the %d B slab", n, least, slabBytes)
	}
}

// cycle increments the initiator modulo m on every interaction, so a
// permutation of the ranks is destroyed by the next increment of any
// of its agents: a transient condition under permanently dense touching.
type cycle struct{ m int }

func (p cycle) Transition(u, v *int) { *u = (*u + 1) % p.m }

func (p cycle) TransitionT(u, v *int) (bool, bool) {
	p.Transition(u, v)
	return true, false
}

// TestExactLoopAcrossCalls checks that an ExactLoop held across calls
// reports what a fresh RunUntilExact reports on every call: after a
// call its budget cut, the held tracker is current; after a hit, which
// leaves the rest of its batch unfolded, it rescans. cycle's ranking
// is transient, so a tracker that kept those records stale would
// report a hit the configuration no longer holds.
func TestExactLoopAcrossCalls(t *testing.T) {
	const n, S = 4, 2
	rank := func(s *int) int { return *s }
	held := New[int](cycle{n + 2}, make([]int, n), 3, S, 2)
	fresh := New[int](cycle{n + 2}, make([]int, n), 3, S, 2)
	loop := NewExactLoop(held, sim.NewRankCond(0, rank))
	cond := sim.NewRankCond(0, rank)
	hits := 0
	for call := range 300 {
		maxSteps := held.Steps() + 1 + int64(call%5)*200
		got, gerr := loop.Run(maxSteps)
		want, werr := fresh.RunUntilExact(cond, maxSteps)
		if got != want || gerr != werr || !reflect.DeepEqual(held.States(), fresh.States()) {
			t.Fatalf("call %d: held loop (%d, %v), fresh (%d, %v), or the states differ", call, got, gerr, want, werr)
		}
		if werr == nil {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no call hit; the comparison after a hit is vacuous")
	}
}
