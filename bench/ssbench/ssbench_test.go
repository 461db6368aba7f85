package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary serve as ssbench's workload processes:
// the harness re-executes its own binary with -child first.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload, untraced and then traced, on toy
// inputs, and checks that each run reports every metric BENCHMARK.json
// lists, in the listed unit, with no failed output check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		out := filepath.Join(dir, "runs.json")
		spans := filepath.Join(dir, "spans.json")
		args := []string{"-scale", "smoke", "-seconds", "0.3", "-out", out}
		if traced {
			args = append(args, "-trace", spans)
		}
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("traced=%v: exit code %d\n%s", traced, code, stderr.String())
		}
		f, err := readResults(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Runs) != len(sp.Workloads) {
			t.Fatalf("traced=%v: %d runs, want one per workload (%d)", traced, len(f.Runs), len(sp.Workloads))
		}
		for i, w := range sp.Workloads {
			run := f.Runs[i]
			if run.Workload != w.Name || run.Traced != traced {
				t.Errorf("run %d is %s (traced %v), want %s (traced %v)", i, run.Workload, run.Traced, w.Name, traced)
			}
			for _, m := range sp.metrics(traced) {
				if v, ok := run.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want a value in %s", w.Name, m.Name, v, m.Unit)
				}
			}
			if run.Attempted == 0 || run.Failed != 0 {
				t.Errorf("%s: error_rate %d/%d, want 0 of at least one check: %v", w.Name, run.Failed, run.Attempted, run.Failures)
			}
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var last resultLine
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || !last.Correct {
			t.Errorf("traced=%v: last output line %s (err %v), want a correct result", traced, lines[len(lines)-1], err)
		}
		if traced {
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var runs map[string]struct{ Spans []span }
			if err := json.Unmarshal(data, &runs); err != nil || len(runs) != len(sp.Workloads) {
				t.Fatalf("span file: %d traced runs (err %v), want %d", len(runs), err, len(sp.Workloads))
			}
			for k, r := range runs {
				if len(r.Spans) == 0 {
					t.Errorf("span file: run %s has no spans", k)
				}
			}
		}
	}
}
