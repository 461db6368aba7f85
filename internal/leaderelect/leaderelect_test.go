package leaderelect

import (
	"math"
	"testing"
	"testing/quick"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
)

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1023: 10, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCeilLog2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilLog2(0) did not panic")
		}
	}()
	CeilLog2(0)
}

func TestNewPanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1) did not panic")
		}
	}()
	New(1)
}

func TestInitialStateShape(t *testing.T) {
	p := New(64)
	for i := 0; i < 4; i++ {
		s := p.InitialState(i)
		if !s.Contender || !s.InLottery || s.Level != 0 || s.Done {
			t.Fatalf("agent %d initial state malformed: %+v", i, s)
		}
		if s.Coin != uint8(i&1) {
			t.Fatalf("agent %d coin = %d, want index parity", i, s.Coin)
		}
		if s.DoneCtr != p.DoneInit() {
			t.Fatalf("agent %d DoneCtr = %d, want %d", i, s.DoneCtr, p.DoneInit())
		}
		if int(s.SigBits) != p.SigLen() {
			t.Fatalf("agent %d SigBits = %d, want %d", i, s.SigBits, p.SigLen())
		}
	}
}

// runLE runs the protocol until every agent is Done and returns the
// final states.
func runLE(t *testing.T, n int, seed uint64) []State {
	t.Helper()
	p := New(n)
	r := sim.New[State](p, p.InitialStates(), seed)
	allDone := func(_ int64, states []State) bool {
		for i := range states {
			if !states[i].Done {
				return false
			}
		}
		return true
	}
	budget := int64(100 * n * (CeilLog2(n) + 1) * (CeilLog2(n) + 1))
	if _, err := sim.Poll(r, 0, budget, allDone); err != nil {
		t.Fatalf("n=%d seed=%d: agents not all Done within %d interactions", n, seed, budget)
	}
	return r.States()
}

func TestAtLeastOneContenderAlways(t *testing.T) {
	// Invariant: the holder of the maximum achieved key is never
	// eliminated, so the population always has a contender.
	for _, n := range []int{2, 3, 8, 64, 256} {
		p := New(n)
		r := sim.New[State](p, p.InitialStates(), uint64(n))
		for i := 0; i < 200; i++ {
			r.Run(int64(n))
			if c := Contenders(r.States()); c < 1 {
				t.Fatalf("n=%d after %d steps: zero contenders", n, r.Steps())
			}
		}
	}
}

func TestUniqueLeaderMostSeeds(t *testing.T) {
	// Lemma 15 interface: w.h.p. exactly one leader. At these sizes we
	// demand at most 1 failure in 10 seeds.
	for _, n := range []int{32, 128} {
		fails := 0
		for seed := uint64(1); seed <= 10; seed++ {
			states := runLE(t, n, seed)
			if Contenders(states) != 1 {
				fails++
			}
		}
		if fails > 1 {
			t.Fatalf("n=%d: %d/10 seeds ended with != 1 contender", n, fails)
		}
	}
}

func TestElectionTimeScaling(t *testing.T) {
	// Lemma 15 shape: unique leader within O(n log² n) interactions.
	if testing.Short() {
		t.Skip("scaling check is slow")
	}
	timeFor := func(n int) float64 {
		p := New(n)
		r := sim.New[State](p, p.InitialStates(), 9)
		steps, err := sim.Poll(r, 0, int64(200*n*CeilLog2(n)*CeilLog2(n)), func(_ int64, ss []State) bool {
			return UniqueLeaderElected(ss)
		})
		if err != nil {
			t.Skipf("n=%d did not elect a unique leader for this seed", n)
		}
		lg := float64(CeilLog2(n))
		return float64(steps) / (float64(n) * lg * lg)
	}
	small, large := timeFor(64), timeFor(512)
	if large > 20*small+20 {
		t.Fatalf("normalized LE time grew from %.2f to %.2f; not O(n log² n)", small, large)
	}
}

func TestDoneCountdownExact(t *testing.T) {
	p := New(16)
	u, v := p.InitialState(0), p.InitialState(1)
	for i := int32(0); i < p.DoneInit()-1; i++ {
		p.Transition(&u, &v)
		if u.Done || v.Done {
			t.Fatalf("Done fired early at participation %d of %d", i+1, p.DoneInit())
		}
	}
	p.Transition(&u, &v)
	if !u.Done || !v.Done {
		t.Fatalf("Done did not fire after %d participations: u=%+v v=%+v", p.DoneInit(), u, v)
	}
}

func TestCoinToggledOnResponder(t *testing.T) {
	p := New(16)
	u, v := p.InitialState(0), p.InitialState(1)
	c := v.Coin
	p.Transition(&u, &v)
	if v.Coin != c^1 {
		t.Fatalf("responder coin not toggled: %d -> %d", c, v.Coin)
	}
}

func TestLotteryCountsHeads(t *testing.T) {
	p := New(64)
	u := p.InitialState(0)
	heads := State{Coin: 1}
	tails := State{Coin: 0}
	p.Transition(&u, &heads) // reads 1
	heads.Coin = 1
	p.Transition(&u, &heads) // reads 1
	if u.Level != 2 || !u.InLottery {
		t.Fatalf("after two heads: level=%d inLottery=%t", u.Level, u.InLottery)
	}
	p.Transition(&u, &tails) // reads 0 -> lottery over
	if u.Level != 2 || u.InLottery {
		t.Fatalf("after tail: level=%d inLottery=%t", u.Level, u.InLottery)
	}
}

func TestLotteryLevelCap(t *testing.T) {
	p := New(4) // levelCap = 6
	u := p.InitialState(0)
	src := State{Coin: 1}
	for i := 0; i < p.LevelCap()+5; i++ {
		src.Coin = 1
		p.Transition(&u, &src)
	}
	if int(u.Level) != p.LevelCap() || u.InLottery {
		t.Fatalf("level = %d (cap %d), inLottery=%t", u.Level, p.LevelCap(), u.InLottery)
	}
}

func TestSignatureCollectsBits(t *testing.T) {
	p := New(4) // sigLen = 4
	u := p.InitialState(0)
	u.InLottery = false // lottery over, start collecting
	bits := []uint8{1, 0, 1, 1}
	for _, b := range bits {
		src := State{Coin: b}
		p.Transition(&u, &src)
	}
	if u.SigBits != 0 {
		t.Fatalf("signature incomplete: %d bits left", u.SigBits)
	}
	if u.Sig != 0b1011 {
		t.Fatalf("Sig = %b, want 1011", u.Sig)
	}
}

func TestEliminationByLevel(t *testing.T) {
	p := New(64)
	low := State{Contender: true, Level: 2, MaxLevel: 2}
	high := State{Contender: true, Level: 5, MaxLevel: 5}
	p.Transition(&high, &low)
	if !high.Contender {
		t.Fatal("high-level contender eliminated")
	}
	if low.Contender {
		t.Fatal("low-level contender survived meeting a higher level")
	}
	if low.MaxLevel != 5 {
		t.Fatalf("epidemic did not spread max level: %d", low.MaxLevel)
	}
}

func TestEliminationBySignature(t *testing.T) {
	p := New(64)
	a := State{Contender: true, Level: 5, Sig: 9, MaxLevel: 5, MaxSig: 9}
	b := State{Contender: true, Level: 5, Sig: 4, MaxLevel: 5, MaxSig: 4}
	p.Transition(&a, &b)
	if !a.Contender || b.Contender {
		t.Fatalf("signature elimination wrong: a=%t b=%t", a.Contender, b.Contender)
	}
}

func TestDuelOnEqualKeys(t *testing.T) {
	p := New(64)
	a := State{Contender: true, Level: 5, Sig: 9, MaxLevel: 5, MaxSig: 9}
	b := State{Contender: true, Level: 5, Sig: 9, MaxLevel: 5, MaxSig: 9}
	p.Transition(&a, &b)
	if !a.Contender {
		t.Fatal("initiator lost the duel")
	}
	if b.Contender {
		t.Fatal("responder survived the duel")
	}
}

func TestFollowerNeverRevives(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := New(32)
		states := p.InitialStates()
		wasFollower := make([]bool, len(states))
		for i := 0; i < 5000; i++ {
			a, b := r.Pair(len(states))
			p.Transition(&states[a], &states[b])
			for j := range states {
				if wasFollower[j] && states[j].Contender {
					return false
				}
				if !states[j].Contender {
					wasFollower[j] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelDistributionGeometric(t *testing.T) {
	// Contender levels after the lottery should look geometric(1/2):
	// mean ≈ 1 for fair coins.
	const n = 1024
	p := New(n)
	r := sim.New[State](p, p.InitialStates(), 5)
	r.Run(int64(50 * n))
	sum, cnt := 0.0, 0
	for _, s := range r.States() {
		if !s.InLottery {
			sum += float64(s.Level)
			cnt++
		}
	}
	if cnt < n/2 {
		t.Fatalf("only %d agents finished the lottery", cnt)
	}
	mean := sum / float64(cnt)
	if math.Abs(mean-1) > 0.5 {
		t.Fatalf("mean lottery level %.2f, want ≈ 1 (geometric with p=1/2)", mean)
	}
}
