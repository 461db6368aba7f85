package core

import (
	"ssrank/internal/sim"
)

// WindowKind distinguishes the two alternating regimes the analysis of
// §IV-A tracks: waiting configurations (the leader counts down its
// wait counter, Lemma 6) and ranking configurations (the unaware
// leader assigns the ranks of one phase, Lemma 7).
type WindowKind uint8

const (
	// WindowWaiting is a maximal time span with a waiting agent
	// present.
	WindowWaiting WindowKind = iota + 1
	// WindowRanking is a maximal span between waiting spans in which
	// ranks are being assigned.
	WindowRanking
)

// String implements fmt.Stringer.
func (k WindowKind) String() string {
	if k == WindowWaiting {
		return "waiting"
	}
	return "ranking"
}

// Window is one maximal span of a regime. Phase is 1-based: the j-th
// waiting window precedes phase j's ranking window (Definition 5's
// C_{j,wait} → C_{j,rank} alternation).
type Window struct {
	Kind  WindowKind
	Phase int32
	// Start and End are interaction counts (End exclusive, sampled on
	// the tracking cadence).
	Start, End int64
}

// Duration returns the window length in interactions.
func (w Window) Duration() int64 { return w.End - w.Start }

// TrackWindows runs SpaceEfficientRanking from its initial
// configuration and segments the run into waiting/ranking windows by
// sampling every `every` interactions (< 1 defaults to n). It returns
// the windows and whether the run reached a valid ranking within
// maxSteps. The first window starts when the leader-election phase
// ends (the first sample with a waiting agent).
func TrackWindows(p *Protocol, seed uint64, every, maxSteps int64) ([]Window, bool) {
	r := sim.New[State](p, p.InitialStates(), seed)
	if every < 1 {
		every = int64(p.N())
	}

	var windows []Window
	var cur *Window
	phase := int32(0)

	flush := func(at int64) {
		if cur != nil {
			cur.End = at
			windows = append(windows, *cur)
			cur = nil
		}
	}

	sim.Poll(r, every, maxSteps, func(steps int64, states []State) bool {
		_, wait, _, _ := CountKinds(states)
		waiting := wait > 0
		switch {
		case cur == nil && waiting:
			// Leader elected: first waiting window (phase 1).
			phase++
			cur = &Window{Kind: WindowWaiting, Phase: phase, Start: steps}
		case cur == nil:
			// Still in leader election.
		case cur.Kind == WindowWaiting && !waiting:
			flush(steps)
			cur = &Window{Kind: WindowRanking, Phase: phase, Start: steps}
		case cur.Kind == WindowRanking && waiting:
			flush(steps)
			phase++
			cur = &Window{Kind: WindowWaiting, Phase: phase, Start: steps}
		}
		return Valid(states)
	})

	flush(r.Steps())
	return windows, Valid(r.States())
}

// PredictedWaitMean returns the Lemma 6 expectation of the phase-k
// waiting window: the wait counter ⌈c_wait·log₂ n⌉ is decremented on
// meetings with the f_k − 1 phase agents, so
// T_wait ~ NegBin(⌈c_wait log n⌉, (f_k−1)/(n(n−1))) with mean
// ⌈c_wait log n⌉ · n(n−1)/(f_k−1).
func (p *Protocol) PredictedWaitMean(k int32) float64 {
	n := float64(p.phases.n)
	fk := float64(p.phases.F(k))
	return float64(p.waitInit) * n * (n - 1) / (fk - 1)
}

// PredictedRankMean returns the Lemma 7 expectation of the phase-k
// ranking window: the i-th assignment waits Geom((f_k−i)/(n(n−1))), so
// the mean is Σ_{i=1..width(k)} n(n−1)/(f_k−i).
func (p *Protocol) PredictedRankMean(k int32) float64 {
	n := float64(p.phases.n)
	fk := p.phases.F(k)
	width := p.phases.Width(k)
	sum := 0.0
	for i := int32(1); i <= width; i++ {
		sum += n * (n - 1) / float64(fk-i)
	}
	return sum
}
