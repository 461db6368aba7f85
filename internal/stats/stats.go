// Package stats provides the small statistics toolkit the experiment
// harness uses: descriptive statistics, quantiles, normal-approximation
// confidence intervals and log-log regression for growth-exponent
// estimation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for fewer than two
// samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It panics on q outside [0,1]
// and returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0, 1]", q))
	}
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MeanCI95 returns the mean together with the half-width of its 95%
// normal-approximation confidence interval.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	m := Mean(xs)
	if len(xs) < 2 {
		return m, 0
	}
	return m, 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// LogLogSlope fits log y = a + b·log x by least squares and returns the
// slope b — the empirical growth exponent of y in x. It panics when
// fewer than two points are given or any coordinate is non-positive.
func LogLogSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: LogLogSlope needs at least two (x, y) pairs of equal length")
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic(fmt.Sprintf("stats: LogLogSlope needs positive data, got (%v, %v)", xs[i], ys[i]))
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	mx, my := Mean(lx), Mean(ly)
	num, den := 0.0, 0.0
	for i := range lx {
		num += (lx[i] - mx) * (ly[i] - my)
		den += (lx[i] - mx) * (lx[i] - mx)
	}
	if den == 0 {
		panic("stats: LogLogSlope with constant x")
	}
	return num / den
}
