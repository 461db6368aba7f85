package stable

import (
	"math"
	"testing"
)

// TestStateWord checks the packed word at the corners of every field:
// each constructor reads back what it was given, the mode and the coin
// included, and a neighbouring field never sees it. A ranked word is
// its rank, so ranks up to 2³¹−1 survive, and the coin toggle leaves a
// ranked agent alone even where its rank has bit 28 set.
func TestStateWord(t *testing.T) {
	for _, rank := range []int32{0, 1, 1 << 28, math.MaxInt32} {
		s := Ranked(rank)
		if s.Mode() != ModeRanked || s.Rank() != rank || s.HasCoin() || s.w != uint32(rank) {
			t.Errorf("Ranked(%d) = %#x reads mode %v rank %d", rank, s.w, s.Mode(), s.Rank())
		}
		s.toggleCoin()
		if s != Ranked(rank) {
			t.Errorf("toggleCoin changed Ranked(%d) to %#x", rank, s.w)
		}
	}
	for _, coin := range []uint8{0, 1} {
		for _, a := range []int16{0, 1, MaxCounter} {
			for _, b := range []int32{0, 1, MaxCounter} {
				r := ResetState(coin, a, b)
				if r.Mode() != ModeReset || r.Coin() != coin || r.ResetCount() != a || r.DelayCount() != b {
					t.Errorf("ResetState(%d, %d, %d) reads %v", coin, a, b, r)
				}
				w := WaitState(coin, a, b)
				if w.Mode() != ModeWait || w.Coin() != coin || w.Wait() != a || w.Alive() != b {
					t.Errorf("WaitState(%d, %d, %d) reads %v", coin, a, b, w)
				}
				p := PhaseState(coin, a, b)
				if p.Mode() != ModePhase || p.Coin() != coin || p.Phase() != a || p.Alive() != b {
					t.Errorf("PhaseState(%d, %d, %d) reads %v", coin, a, b, p)
				}
				for _, done := range []bool{false, true} {
					for _, leader := range []bool{false, true} {
						l := LEState(coin, a, b, done, leader)
						if l.Mode() != ModeLE || l.Coin() != coin || l.LECount() != a || l.CoinCount() != b || l.LeaderDone() != done || l.IsLeader() != leader {
							t.Errorf("LEState(%d, %d, %d, %t, %t) reads %v", coin, a, b, done, leader, l)
						}
					}
				}
				p.toggleCoin()
				if p != PhaseState(1-coin, a, b) {
					t.Errorf("toggleCoin of PhaseState(%d, %d, %d) reads %v", coin, a, b, p)
				}
				p.setA(MaxCounter)
				p.setB(0)
				if p != PhaseState(1-coin, MaxCounter, 0) {
					t.Errorf("setters of PhaseState(%d, %d, %d) read %v", coin, a, b, p)
				}
			}
		}
	}
}
