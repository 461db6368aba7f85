package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureSpec is the spec the hand-written result files in testdata are
// judged against: two workloads, three end-to-end metrics (one where
// higher is better) and one per-layer metric.
var fixtureSpec = &spec{
	Workloads: []specWorkload{{Name: "alpha"}, {Name: "beta"}},
	EndToEnd: []specMetric{
		{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	},
	PerLayer: []specMetric{{Name: "layer.busy_ns", Unit: "ns", Better: "lower"}},
}

func TestCompareFixtures(t *testing.T) {
	parent, change := filepath.Join("testdata", "parent.json"), filepath.Join("testdata", "change.json")
	var out bytes.Buffer
	if code := compareFiles(fixtureSpec, []string{parent, change}, &out, io.Discard); code != 1 {
		t.Errorf("exit code %d, want 1 (a worse metric and a higher error rate)\n%s", code, out.String())
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		verdicts[f[0]+" "+f[1]] = f[len(f)-1]
	}
	want := map[string]string{
		"alpha latency_ms":    "worse",  // +15% against a 10% bound
		"alpha rate":          "better", // +12%, every change run beats every parent run
		"alpha setup_s":       "same",   // +10% of the median; set-up is judged on medians alone
		"alpha error_rate":    "same",
		"alpha layer.busy_ns": "layer",
		"beta latency_ms":     "unresolved", // the change's spread (45%) exceeds the 10% bound
		"beta rate":           "same",
		"beta setup_s":        "same",
		"beta error_rate":     "worse", // 1 of 30 checks failed, none before
	}
	for row, v := range want {
		if verdicts[row] != v {
			t.Errorf("%s: verdict %q, want %q", row, verdicts[row], v)
		}
	}
	if len(verdicts) != len(want) {
		t.Errorf("%d rows, want %d:\n%s", len(verdicts), len(want), out.String())
	}

	out.Reset()
	if code := compareFiles(fixtureSpec, []string{parent, parent}, &out, io.Discard); code != 0 {
		t.Errorf("a file compared with itself: exit code %d, want 0\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("a file compared with itself reports a change:\n%s", out.String())
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Better: "lower", Bound: 0.1}
	higher := specMetric{Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"unchanged", lower, base, []float64{101, 100, 99, 102, 100}, "same"},
		{"within the bound", lower, base, []float64{105, 106, 104, 105, 107}, "same"},
		{"past the bound", lower, base, []float64{112, 113, 111, 112, 114}, "worse"},
		{"improved past the parent's spread", lower, base, []float64{95, 94, 96, 95, 95}, "better"},
		{"higher is better, fell", higher, base, []float64{85, 86, 84, 85, 86}, "worse"},
		{"higher is better, rose", higher, base, []float64{110, 111, 109, 110, 112}, "better"},
		{"spread wider than the bound", lower, base, []float64{70, 100, 130, 100, 85}, "unresolved"},
		{"wide spread, every run better", lower, []float64{100, 140, 120, 160, 100}, []float64{50, 60, 70, 80, 90}, "better"},
		{"no change runs", lower, base, nil, "missing"},
		{"set-up, wide spread, median within the bound", specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}, base, []float64{70, 100, 130, 110, 85}, "same"},
		{"set-up, median past the bound", specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}, base, []float64{70, 140, 130, 150, 85}, "worse"},
	} {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) and
	// statistics.quantiles([0.006, 0.010, 0.011, 0.014, 0.018], n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{0.006, 0.010, 0.011, 0.014, 0.018}, 0.008, 0.011, 0.016},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, p := range [][2]float64{{q1, c.q1}, {q2, c.q2}, {q3, c.q3}} {
			if d := p[0] - p[1]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quartiles(%v) q%d = %v, want %v", c.xs, i+1, p[0], p[1])
			}
		}
	}
}
