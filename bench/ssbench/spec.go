package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// spec is BENCHMARK.json at the repository root: the workloads, the
// metrics every run must report, and the bound by which each
// end-to-end metric may worsen before a change counts as a regression.
// The benchmark reads it on every run, so the metric names, units and
// directions it prints cannot drift from the ones it is judged by.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range sp.Workloads {
		if newWorkload(w.Name) == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which ssbench does not implement", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloadNames) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, ssbench implements %d", len(sp.Workloads), len(workloadNames))
	}
	return &sp, nil
}

// metrics returns the metric list a run of the given kind must report.
func (sp *spec) metrics(traced bool) []specMetric {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

func (sp *spec) metric(name string) (specMetric, bool) {
	for _, m := range append(slices.Clip(sp.EndToEnd), sp.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}

// conform checks that a run reported exactly the metrics BENCHMARK.json
// lists for its kind, each in the listed unit.
func (sp *spec) conform(got map[string]value, traced bool) error {
	want := sp.metrics(traced)
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v.Value)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for name := range got {
			if _, ok := sp.metric(name); !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d (not listed: %v)", len(got), len(want), extra)
	}
	return nil
}

// value is one measured metric: the number, its unit, and how many
// samples stand behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so a spread printed here is the spread an outside check of
// the same values sees.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// millis converts durations to float64 milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
