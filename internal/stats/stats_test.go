package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almostEqual(v, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7)
	}
	if s := StdDev(xs); !almostEqual(s, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("StdDev = %v", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-input conventions violated")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) != 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("single-sample variance != 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5}
	for q, want := range cases {
		if got := Quantile(xs, q); !almostEqual(got, want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// Interpolation on even-length input.
	if got := Median([]float64{1, 2, 3, 10}); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("Median = %v, want 2.5", got)
	}
	// Input must not be mutated (Quantile sorts a copy).
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestMeanCI95(t *testing.T) {
	m, hw := MeanCI95([]float64{10, 10, 10, 10})
	if m != 10 || hw != 0 {
		t.Fatalf("constant sample CI: mean=%v hw=%v", m, hw)
	}
	_, hw = MeanCI95([]float64{0, 20, 0, 20})
	if hw <= 0 {
		t.Fatalf("noisy sample half-width = %v, want > 0", hw)
	}
	if _, hw := MeanCI95([]float64{1}); hw != 0 {
		t.Fatal("single sample must have zero half-width")
	}
}

func TestLogLogSlopeExact(t *testing.T) {
	// y = 5·x³ exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * x * x * x
	}
	if b := LogLogSlope(xs, ys); !almostEqual(b, 3, 1e-9) {
		t.Fatalf("slope = %v, want 3", b)
	}
}

func TestLogLogSlopeProperty(t *testing.T) {
	// For y = c·x^b with random positive c, b, the fit recovers b.
	f := func(rawB int8, rawC uint8) bool {
		b := float64(rawB%50) / 10 // -4.9..4.9
		c := 0.5 + float64(rawC)/64
		xs := []float64{2, 3, 5, 9, 17, 33}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = c * math.Pow(x, b)
		}
		return almostEqual(LogLogSlope(xs, ys), b, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogLogSlopePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { LogLogSlope([]float64{1}, []float64{1}) },
		func() { LogLogSlope([]float64{1, 2}, []float64{1}) },
		func() { LogLogSlope([]float64{1, -2}, []float64{1, 2}) },
		func() { LogLogSlope([]float64{3, 3}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
