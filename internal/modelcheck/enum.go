package modelcheck

import (
	"ssrank/internal/baseline/aware"
	"ssrank/internal/baseline/cai"
	"ssrank/internal/baseline/interval"
	"ssrank/internal/stable"
)

// This file enumerates the per-agent state spaces of the protocols the
// test suite model-checks. Each enumeration mirrors the protocol's
// CheckInvariant exactly; a state the enumeration misses would weaken
// the check, one it over-includes shows up as an Apply error or an
// unreachable-legal counterexample.

// StableStates enumerates the full declared state space of
// StableRanking for the given protocol instance.
func StableStates(p *stable.Protocol) []stable.State {
	var out []stable.State
	n := int32(p.N())

	// Ranked agents (no coin).
	for r := int32(1); r <= n; r++ {
		out = append(out, stable.Ranked(r))
	}
	for coin := uint8(0); coin <= 1; coin++ {
		// PropagateReset, excluding the instantly-awakening (0, 0).
		for rc := int16(0); rc <= p.RMax(); rc++ {
			for dc := int32(0); dc <= p.DMax(); dc++ {
				if rc == 0 && dc == 0 {
					continue
				}
				out = append(out, stable.ResetState(coin, rc, dc))
			}
		}
		// FastLeaderElection: undecided (any coinCount), done loser,
		// done leader.
		for lec := int16(1); lec <= p.LEBudget(); lec++ {
			for cc := int32(0); cc <= p.CoinInit(); cc++ {
				out = append(out, stable.LEState(coin, lec, cc, false, false))
			}
			out = append(out, stable.LEState(coin, lec, 0, true, false))
			out = append(out, stable.LEState(coin, lec, 0, true, true))
		}
		// Main protocol: waiting and phase agents.
		for alive := int32(1); alive <= p.LMax(); alive++ {
			for w := int16(1); w <= p.WaitInit(); w++ {
				out = append(out, stable.WaitState(coin, w, alive))
			}
			for ph := int16(1); int32(ph) <= p.Phases().KMax(); ph++ {
				out = append(out, stable.PhaseState(coin, ph, alive))
			}
		}
	}
	return out
}

// CaiStates enumerates the n labels of the Cai–Izumi–Wada protocol.
func CaiStates(p *cai.Protocol) []cai.State {
	out := make([]cai.State, p.N())
	for i := range out {
		out[i] = cai.State(i + 1)
	}
	return out
}

// IntervalStates enumerates the binary-tree blocks of the identifier
// space [1, m].
func IntervalStates(p *interval.Protocol) []interval.State {
	var out []interval.State
	for length := int32(1); length <= p.M(); length <<= 1 {
		for lo := int32(1); lo+length-1 <= p.M(); lo += length {
			out = append(out, interval.State{Lo: lo, Hi: lo + length - 1})
		}
	}
	return out
}

// AwareStates enumerates the full declared state space of the
// aware-leader baseline.
func AwareStates(p *aware.Protocol) []aware.State {
	var out []aware.State
	n := int32(p.N())
	for r := int32(1); r <= n; r++ {
		out = append(out, aware.Ranked(r))
	}
	// Parameter bounds mirror stable's (same factors).
	sp := stable.New(p.N(), stable.DefaultParams())
	for coin := uint8(0); coin <= 1; coin++ {
		for next := int32(2); next <= n; next++ {
			for alive := int32(1); alive <= p.LMax(); alive++ {
				out = append(out, aware.State{Mode: aware.ModeLeader, Coin: coin, Next: next, Alive: alive})
			}
		}
		for alive := int32(1); alive <= p.LMax(); alive++ {
			out = append(out, aware.State{Mode: aware.ModeBlank, Coin: coin, Alive: alive})
		}
		for rc := int32(0); rc <= int32(sp.RMax()); rc++ {
			for dc := int32(0); dc <= sp.DMax(); dc++ {
				if rc == 0 && dc == 0 {
					continue
				}
				out = append(out, aware.State{Mode: aware.ModeReset, Coin: coin, ResetCount: rc, DelayCount: dc})
			}
		}
		for lec := int32(1); lec <= int32(sp.LEBudget()); lec++ {
			for cc := int32(0); cc <= sp.CoinInit(); cc++ {
				out = append(out, aware.State{Mode: aware.ModeLE, Coin: coin, LECount: lec, CoinCount: cc})
			}
			out = append(out, aware.State{Mode: aware.ModeLE, Coin: coin, LECount: lec, LeaderDone: true})
			out = append(out, aware.State{Mode: aware.ModeLE, Coin: coin, LECount: lec, LeaderDone: true, IsLeader: true})
		}
	}
	return out
}
