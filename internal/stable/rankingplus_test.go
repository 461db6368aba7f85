package stable

import (
	"testing"
	"testing/quick"

	"ssrank/internal/core"
	"ssrank/internal/rng"
)

func mainPhase(coin uint8, phase, alive int16) State {
	return PhaseState(coin, phase, int32(alive))
}

func mainWait(coin uint8, wait, alive int16) State {
	return WaitState(coin, wait, int32(alive))
}

func TestDuplicateRankTriggersReset(t *testing.T) {
	p := New(64, DefaultParams())
	u, v := Ranked(5), Ranked(5)
	p.Transition(&u, &v)
	if u.Mode != ModeReset {
		t.Fatalf("initiator after duplicate meeting: %+v", u)
	}
	if v != Ranked(5) {
		t.Fatalf("responder should be untouched: %+v", v)
	}
	if p.ResetsFor(ReasonDuplicateRank) != 1 {
		t.Fatalf("duplicate-rank resets = %d", p.ResetsFor(ReasonDuplicateRank))
	}
}

func TestDistinctRanksAreSilent(t *testing.T) {
	p := New(64, DefaultParams())
	u, v := Ranked(5), Ranked(6)
	p.Transition(&u, &v)
	if u != Ranked(5) || v != Ranked(6) {
		t.Fatalf("distinct ranked agents changed: %+v, %+v", u, v)
	}
}

func TestTwoWaitingTriggersReset(t *testing.T) {
	p := New(64, DefaultParams())
	u := mainWait(0, 3, 5)
	v := mainWait(1, 2, 5)
	p.Transition(&u, &v)
	if u.Mode != ModeReset {
		t.Fatalf("initiator after two-waiting meeting: %+v", u)
	}
	if p.ResetsFor(ReasonTwoWaiting) != 1 {
		t.Fatalf("two-waiting resets = %d", p.ResetsFor(ReasonTwoWaiting))
	}
}

func TestLivenessMaxMinusOne(t *testing.T) {
	p := New(64, DefaultParams())
	u := mainPhase(0, 1, 7)
	v := mainPhase(0, 1, 3)
	p.Transition(&u, &v)
	if u.Alive() != 6 || v.Alive() != 6 {
		t.Fatalf("alive = (%d, %d), want (6, 6)", u.Alive(), v.Alive())
	}
}

func TestLivenessMaxMinusOneExpiryResets(t *testing.T) {
	p := New(64, DefaultParams())
	u := mainPhase(0, 1, 1)
	v := mainPhase(0, 1, 1)
	p.Transition(&u, &v)
	if u.Mode != ModeReset || v.Mode != ModeReset {
		t.Fatalf("agents after joint expiry: %+v, %+v — both must reset", u, v)
	}
	if p.ResetsFor(ReasonAliveExpired) != 2 {
		t.Fatalf("alive-expired resets = %d, want 2 (both witnesses)", p.ResetsFor(ReasonAliveExpired))
	}
}

func TestTopRankedDrainLiveness(t *testing.T) {
	p := New(64, DefaultParams())
	for _, rank := range []int32{63, 64} {
		u := Ranked(rank)
		v := mainPhase(1, 3, 5)
		p.Transition(&u, &v)
		if v.Alive() != 4 {
			t.Fatalf("rank %d: alive = %d, want 4", rank, v.Alive())
		}
		if u != Ranked(rank) {
			t.Fatalf("rank %d initiator changed: %+v", rank, u)
		}
	}
	// Lower ranks do not drain.
	u := Ranked(62)
	v := mainPhase(1, 3, 5)
	p.Transition(&u, &v)
	if v.Alive() != 5 {
		t.Fatalf("rank 62 drained: alive = %d", v.Alive())
	}
}

func TestTopRankedDrainExpiryResets(t *testing.T) {
	p := New(64, DefaultParams())
	u := Ranked(64)
	v := mainPhase(1, 3, 1)
	p.Transition(&u, &v)
	if u.Mode != ModeReset || v.Mode != ModeReset {
		t.Fatalf("agents after draining to zero: %+v, %+v — both must reset", u, v)
	}
	if p.ResetsFor(ReasonAliveExpired) != 2 {
		t.Fatalf("alive-expired resets = %d, want 2 (both witnesses)", p.ResetsFor(ReasonAliveExpired))
	}
}

func TestCoinZeroRefreshesLivenessForProductivePairs(t *testing.T) {
	p := New(64, DefaultParams())

	// Waiting initiator refreshes a tails responder.
	u := mainWait(0, 3, 5)
	v := mainPhase(0, 2, 3)
	p.Transition(&u, &v)
	if v.Alive() != p.LMax() {
		t.Fatalf("alive = %d, want refreshed to %d", v.Alive(), p.LMax())
	}
	if u.Wait() != 3 {
		t.Fatalf("wait counter must not move on tails: %d", u.Wait())
	}
	if v.Coin() != 1 {
		t.Fatalf("responder coin not toggled: %d", v.Coin())
	}

	// Unaware leader refreshes a tails responder.
	k := int16(2)
	leader := Ranked(1)
	v2 := mainPhase(0, k, 3)
	p.Transition(&leader, &v2)
	if v2.Alive() != p.LMax() {
		t.Fatalf("unaware leader did not refresh: alive = %d", v2.Alive())
	}
	if v2.Mode != ModePhase {
		t.Fatalf("tails responder must not be ranked: %+v", v2)
	}

	// A non-leader ranked agent does not refresh.
	other := Ranked(40)
	v3 := mainPhase(0, k, 3)
	p.Transition(&other, &v3)
	if v3.Alive() != 3 {
		t.Fatalf("non-leader refreshed: alive = %d", v3.Alive())
	}
}

func TestCoinOneRunsBaseProtocol(t *testing.T) {
	p := New(64, DefaultParams())
	leader := Ranked(1)
	v := mainPhase(1, 1, 5)
	p.Transition(&leader, &v)
	wantRank := p.Phases().F(2) + 1
	// == also checks that no coin or liveness counter survived.
	if v != Ranked(wantRank) {
		t.Fatalf("heads responder got %+v, want rank(%d)", v, wantRank)
	}
	if leader != Ranked(2) {
		t.Fatalf("leader = %+v, want rank(2)", leader)
	}
}

func TestLeaderBecomingWaitingGetsCoinAndAlive(t *testing.T) {
	// Protocol 4 lines 17–18.
	p := New(64, DefaultParams())
	width := p.Phases().Width(1)
	leader := Ranked(width) // last leader rank of phase 1
	v := mainPhase(1, 1, 5)
	p.Transition(&leader, &v)
	if leader.Mode != ModeWait {
		t.Fatalf("leader = %+v, want waiting", leader)
	}
	if leader.Coin() != 0 || leader.Alive() != p.LMax() || leader.Wait() != p.WaitInit() {
		t.Fatalf("waiting leader counters wrong: %+v", leader)
	}
	if v.Mode != ModeRanked || v.Rank() != p.Phases().F(1) {
		t.Fatalf("last assignment of phase 1: %+v, want rank(%d)", v, p.Phases().F(1))
	}
}

func TestWaitingCountdownOnHeadsOnly(t *testing.T) {
	p := New(64, DefaultParams())
	u := mainWait(0, 2, 5)

	tails := mainPhase(0, 1, 5)
	p.Transition(&u, &tails)
	if u.Wait() != 2 {
		t.Fatalf("wait moved on tails: %d", u.Wait())
	}

	heads := mainPhase(1, 1, 5)
	p.Transition(&u, &heads)
	if u.Wait() != 1 {
		t.Fatalf("wait = %d after heads, want 1", u.Wait())
	}
	heads2 := mainPhase(1, 1, 5)
	p.Transition(&u, &heads2)
	if u != Ranked(1) {
		t.Fatalf("leader after countdown: %+v, want rank(1)", u)
	}
}

func TestPhaseEpidemicUnderCoin(t *testing.T) {
	p := New(64, DefaultParams())
	u := mainPhase(0, 4, 5)
	v := mainPhase(1, 2, 5) // heads: base protocol runs
	p.Transition(&u, &v)
	if u.Phase() != 4 || v.Phase() != 4 {
		t.Fatalf("phases = (%d, %d), want (4, 4)", u.Phase(), v.Phase())
	}

	// Tails: base protocol does not run, phases unchanged.
	u2 := mainPhase(0, 4, 5)
	v2 := mainPhase(0, 2, 5)
	p.Transition(&u2, &v2)
	if u2.Phase() != 4 || v2.Phase() != 2 {
		t.Fatalf("tails interaction moved phases: (%d, %d)", u2.Phase(), v2.Phase())
	}
}

func TestRankedResponderInert(t *testing.T) {
	p := New(64, DefaultParams())
	u := mainPhase(1, 2, 5)
	v := Ranked(30)
	p.Transition(&u, &v)
	if u != mainPhase(1, 2, 5) || v != Ranked(30) {
		t.Fatalf("interaction with ranked responder changed states: %+v, %+v", u, v)
	}
}

func TestPaperLiteralProductiveCondition(t *testing.T) {
	params := DefaultParams()
	params.PaperLiteralProductive = true
	p := New(5, params) // n=5: f = [5,3,2,1], phase 3 width = 1 but ⌊5/8⌋ = 0
	u := Ranked(1)
	v := mainPhase(0, 3, 2)
	p.Transition(&u, &v)
	if v.Alive() != 2 {
		t.Fatalf("literal condition refreshed at phase 3 for n=5: alive=%d", v.Alive())
	}

	pExact := New(5, DefaultParams())
	v2 := mainPhase(0, 3, 2)
	u2 := Ranked(1)
	pExact.Transition(&u2, &v2)
	if v2.Alive() != pExact.LMax() {
		t.Fatalf("exact condition did not refresh at phase 3 for n=5: alive=%d", v2.Alive())
	}
}

// TestBaseRankingMatchesCore cross-validates the Ranking reimplementation
// inside Ranking+ against core.Ranking on random main-state pairs.
func TestBaseRankingMatchesCore(t *testing.T) {
	const n = 97 // deliberately not a power of two
	ps := New(n, DefaultParams())
	pc := core.New(n, core.DefaultParams())

	toCore := func(s State) core.State {
		switch s.Mode {
		case ModeRanked:
			return core.RankedState(s.Rank())
		case ModeWait:
			return core.WaitState(int32(s.Wait()))
		case ModePhase:
			return core.PhaseState(int32(s.Phase()))
		}
		panic("not a main state")
	}
	fromCore := func(c core.State, orig State) State {
		switch c.Kind {
		case core.KindRanked:
			return Ranked(c.Rank)
		case core.KindWait:
			return WaitState(orig.Coin(), int16(c.Wait), orig.Alive())
		case core.KindPhase:
			return PhaseState(orig.Coin(), int16(c.Phase), orig.Alive())
		}
		panic("unexpected core kind")
	}

	randMain := func(r *rng.RNG) State {
		switch r.Intn(3) {
		case 0:
			return Ranked(int32(1 + r.Intn(n)))
		case 1:
			return mainWait(uint8(r.Intn(2)), int16(1+r.Intn(int(ps.WaitInit()))), int16(1+r.Intn(int(ps.LMax()))))
		default:
			return mainPhase(uint8(r.Intn(2)), int16(1+r.Intn(int(ps.Phases().KMax()))), int16(1+r.Intn(int(ps.LMax()))))
		}
	}

	f := func(seed uint64) bool {
		r := rng.New(seed)
		for i := 0; i < 200; i++ {
			u, v := randMain(r), randMain(r)
			cu, cv := toCore(u), toCore(v)

			su, sv := u, v
			ps.baseRanking(&su, &sv)
			becameS := u.Mode == ModeRanked && su.Mode == ModeWait
			becameC := pc.Ranking(&cu, &cv)
			if becameS != becameC {
				t.Logf("became mismatch on (%v, %v)", u, v)
				return false
			}
			// Compare resulting role/rank/phase/wait, ignoring
			// coin/alive bookkeeping that only stable carries.
			wu, wv := fromCore(cu, u), fromCore(cv, v)
			if becameS {
				// stable gives the fresh waiting agent coin 0 and a
				// full liveness counter; align for comparison.
				wu = WaitState(su.Coin(), int16(cu.Wait), su.Alive())
			}
			if sv.Mode == ModeRanked {
				// stable clears coin/alive on ranking; fromCore
				// preserves orig's — align.
				wv = Ranked(sv.Rank())
				if cv.Kind != core.KindRanked || cv.Rank != sv.Rank() {
					t.Logf("rank mismatch on (%v, %v): stable %v core %v", u, v, sv, cv)
					return false
				}
			}
			if su.Mode == ModeRanked && su.Rank() == 1 && u.Mode == ModeWait {
				wu = Ranked(1)
			}
			if su != wu || sv != wv {
				t.Logf("state mismatch on (%v, %v): stable (%v, %v) vs core-mapped (%v, %v)", u, v, su, sv, wu, wv)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
