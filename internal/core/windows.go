package core

// The phase-window expectations of §IV-A: the analysis alternates
// waiting configurations (the leader counts down its wait counter,
// Lemma 6) and ranking configurations (the unaware leader assigns the
// ranks of one phase, Lemma 7). The experiment harness segments runs
// into these windows and compares against the means below.

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
