package core

import "testing"

func TestPredictedMeansShape(t *testing.T) {
	p := New(1024, DefaultParams())
	kMax := p.Phases().KMax()
	// Wait means double per phase (up to ceil effects).
	for k := int32(1); k < kMax; k++ {
		a, b := p.PredictedWaitMean(k), p.PredictedWaitMean(k+1)
		if b < 1.5*a {
			t.Fatalf("wait mean did not grow at k=%d: %.0f -> %.0f", k, a, b)
		}
	}
	// Ranking means stay within a small constant factor of 2n² ln 2.
	n2 := float64(1024) * 1024
	for k := int32(1); k <= kMax; k++ {
		m := p.PredictedRankMean(k)
		if m < 0.5*n2 || m > 4*n2 {
			t.Fatalf("rank mean at k=%d out of band: %.3g (n² = %.3g)", k, m, n2)
		}
	}
}
