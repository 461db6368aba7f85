// Command ssbench is the repository's benchmark: it runs ssrank end to
// end on five workloads and reports end-to-end metrics, or, traced, the
// per-layer metrics that explain them. BENCHMARK.json at the repository
// root lists the workloads and metrics; bench/README.md explains them.
//
//	bash bench/run.sh --workload serial-stabilize --seed 1 --seconds 20 --trace 0
//	go run ./ssbench -seed 1                 (from bench/: every workload)
//	go run ./ssbench -seed 1 -trace t.json   (traced, spans to t.json)
//	go run ./ssbench -runs 10 -out a.json    (a set of runs, seeds 1..10)
//	go run ./ssbench -compare a.json b.json
//
// Each workload run executes in its own child process (this binary,
// re-executed), so peak memory and the garbage collector's state belong
// to one workload. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"ssrank/internal/stats"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the flags of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string
	runs     int
	out      string
	scale    string
	// Set only on child processes.
	child, runDir, binDir string
	setupOnly             bool
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("ssbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: every workload in BENCHMARK.json)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every workload input derives from")
	fs.Float64Var(&o.seconds, "seconds", 0, "measuring time per workload run (0: run_seconds from BENCHMARK.json)")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: traced run reporting per-layer metrics, spans to .bench_build/ssbench-spans.json; any other value: traced run with spans written to that file")
	fs.IntVar(&o.runs, "runs", 1, "run each workload this many times, with seeds seed, seed+1, ...")
	fs.StringVar(&o.out, "out", "", "write every run to this JSON file, the input of -compare (default .bench_build/ssbench.json at the checkout root)")
	fs.StringVar(&o.scale, "scale", "full", "problem sizes: full, or smoke for a seconds-long run of the same code on toy inputs")
	compare := fs.Bool("compare", false, "compare two result files: ssbench -compare A.json B.json")
	fs.StringVar(&o.child, "child", "", "internal: run this workload in this process")
	fs.StringVar(&o.runDir, "rundir", "", "internal: the child's scratch directory")
	fs.StringVar(&o.binDir, "bindir", "", "internal: the directory holding the tool binaries")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: set the workload up, then stop")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.child != "" {
		return childMain(o, stdout, stderr)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "ssbench:", err)
		return 2
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "ssbench:", err)
		return 2
	}
	if *compare {
		return compareFiles(sp, fs.Args(), stdout, stderr)
	}
	if err := bench(root, sp, o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "ssbench:", err)
		return 1
	}
	return 0
}

// traceMode parses -trace: whether the run is traced, and where spans go.
func traceMode(v, buildDir string) (bool, string) {
	switch v {
	case "", "0", "false":
		return false, ""
	case "1", "true":
		return true, filepath.Join(buildDir, "ssbench-spans.json")
	}
	return true, v
}

// runRecord is one workload run as the result file stores it.
type runRecord struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Metrics   metrics  `json:"metrics"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Scale     string      `json:"scale"`
	Seconds   float64     `json:"seconds"`
	CPUs      int         `json:"cpus"`
	GoVersion string      `json:"go_version"`
	Runs      []runRecord `json:"runs"`
}

// childResult is what a child process reports on its last output line.
type childResult struct {
	runRecord
	ReadyNS int64  `json:"ready_unix_ns"` // when set-up finished
	Spans   []span `json:"spans,omitempty"`
}

// setupRuns is how many times each untraced run sets its workload up;
// set-up time is the median.
const setupRuns = 5

// bench runs the selected workloads and reports them.
func bench(root string, sp *spec, o options, stdout, stderr io.Writer) error {
	if _, ok := scales[o.scale]; !ok {
		return fmt.Errorf("unknown -scale %q (full or smoke)", o.scale)
	}
	names := make([]string, 0, len(sp.Workloads))
	for _, w := range sp.Workloads {
		if o.workload == "" || o.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown -workload %q", o.workload)
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	buildDir := filepath.Join(root, ".bench_build")
	traced, spansPath := traceMode(o.trace, buildDir)
	if o.out == "" {
		o.out = filepath.Join(buildDir, "ssbench.json")
	}
	o.binDir = filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(o.binDir, 0o755); err != nil {
		return err
	}
	if err := buildTools(root, o.binDir, stderr); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	// Relative to the checkout root, where children run: unix socket
	// paths must stay short.
	if o.runDir, err = filepath.Rel(root, runDir); err != nil {
		return err
	}

	file := resultsFile{Scale: o.scale, Seconds: o.seconds, CPUs: runtime.NumCPU(), GoVersion: runtime.Version()}
	spans := map[string][]span{}
	for _, name := range names {
		for i := range o.runs {
			rec, runSpans, err := runWorkload(root, o, name, o.seed+uint64(i), traced, stderr)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, o.seed+uint64(i), err)
			}
			if err := sp.conform(rec.Metrics, traced); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printRun(stdout, sp, rec)
			for _, f := range rec.Failures {
				fmt.Fprintf(stderr, "ssbench: %s seed %d: check failed: %s\n", name, rec.Seed, f)
			}
			file.Runs = append(file.Runs, rec)
			spans[fmt.Sprintf("%s/%d", name, rec.Seed)] = runSpans
		}
	}
	if err := writeJSON(o.out, file); err != nil {
		return err
	}
	if traced {
		if err := writeSpans(spansPath, spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(summary(file.Runs))
}

// runWorkload runs one workload for one seed: for an untraced run, the
// set-up alone setupRuns−1 times and then set-up and measurement, each
// in a fresh child process; for a traced run, one traced child.
func runWorkload(root string, o options, name string, seed uint64, traced bool, stderr io.Writer) (runRecord, []span, error) {
	args := []string{
		"-child", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", o.scale,
		"-rundir", o.runDir,
		"-bindir", o.binDir,
		"-trace", strconv.FormatBool(traced),
	}
	var setups []float64
	if !traced {
		for range setupRuns - 1 {
			_, setup, err := spawnChild(root, append(args, "-setup-only"), 60*time.Second, stderr)
			if err != nil {
				return runRecord{}, nil, err
			}
			setups = append(setups, setup)
		}
	}
	res, setup, err := spawnChild(root, args, 170*time.Second, stderr)
	if err != nil {
		return runRecord{}, nil, err
	}
	if !traced {
		setups = append(setups, setup)
		res.Metrics.set("setup_s", stats.Median(setups), "s", len(setups))
	}
	return res.runRecord, res.Spans, nil
}

// spawnChild runs one child process and returns its report and its
// set-up time: from the moment the process was started to the moment
// the child reported it was ready to time its first operation.
func spawnChild(root string, args []string, timeout time.Duration, stderr io.Writer) (childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, 0, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = &out, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childResult{}, 0, err
	}
	timer := time.AfterFunc(timeout, func() { cmd.Process.Kill() })
	err = cmd.Wait()
	timer.Stop()
	if err != nil {
		return childResult{}, 0, fmt.Errorf("workload process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return childResult{}, 0, fmt.Errorf("workload process report: %w", err)
	}
	return res, time.Unix(0, res.ReadyNS).Sub(start).Seconds(), nil
}

// childMain runs one workload in this process and reports it on the
// last line of stdout.
func childMain(o options, stdout, stderr io.Writer) int {
	w := newWorkload(o.child)
	sz, ok := scales[o.scale]
	if w == nil || !ok {
		fmt.Fprintf(stderr, "ssbench: unknown workload %q or scale %q\n", o.child, o.scale)
		return 2
	}
	traced, _ := traceMode(o.trace, "")
	e := &env{size: sz, seed: o.seed, bin: o.binDir, runDir: o.runDir, layer: metrics{}}
	res := childResult{runRecord: runRecord{Workload: o.child, Seed: o.seed, Traced: traced}}
	defer w.stop()
	if err := w.start(e); err != nil {
		fmt.Fprintf(stderr, "ssbench: %s: set-up: %v\n", o.child, err)
		return 1
	}
	res.ReadyNS = time.Now().UnixNano()
	d := time.Duration(o.seconds * float64(time.Second))
	switch {
	case o.setupOnly:
	case traced:
		e.tr = newTracer()
		res.Metrics = traceRun(e, o.child, w, d)
		res.Spans = e.tr.spans
	default:
		w.measure(e, d, false)
		w.verify(e)
		res.Metrics = w.endToEnd()
	}
	w.stop()
	res.Attempted, res.Failed, res.Failures = e.chk.attempted, e.chk.failed, e.chk.failures
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "ssbench:", err)
		return 1
	}
	return 0
}

// traceRun is a traced run of the home workload: half the measuring
// time untraced, as the reference, then the same operations replayed
// with spans; then a short probe of every other workload's layers and
// of the checkpoint codec, so that every traced run reports the whole
// per-layer ledger. Each per-layer metric is measured by the workload
// that exercises it (bench/README.md lists which); outside that
// workload's own traced run it comes from one short probe operation.
func traceRun(e *env, home string, w workload, d time.Duration) metrics {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds(w.pids())
	start := time.Now()
	w.measure(e, d/2, false)
	wall := time.Since(start)
	cpu1 := cpuSeconds(w.pids())
	runtime.ReadMemStats(&m1)
	w.verify(e)
	overhead, gap := w.trace(e)
	w.stop()

	for _, name := range workloadNames {
		if name == home {
			continue
		}
		v := newWorkload(name)
		if err := v.start(e); e.chk.check(err == nil, "%s probe set-up: %v", name, err) {
			v.measure(e, 0, true)
			v.verify(e)
			v.trace(e)
		}
		v.stop()
	}
	ckptProbe(e)

	e.layer.set("go.alloc_bytes_per_interaction", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(w.interactions()), "B", 1)
	e.layer.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC), "count", 1)
	e.layer.set("go.cpu_util", (cpu1-cpu0)/(wall.Seconds()*float64(runtime.NumCPU())), "ratio", 1)
	e.layer.set("trace.overhead_frac", overhead, "ratio", 1)
	e.layer.set("trace.closure_gap_frac", gap, "ratio", 1)
	return e.layer
}

// printRun prints one line per metric, with unit and sample count, and
// the run's error rate.
func printRun(w io.Writer, sp *spec, rec runRecord) {
	for _, m := range sp.metrics(rec.Traced) {
		v := rec.Metrics[m.Name]
		fmt.Fprintf(w, "%-16s seed=%-4d %-34s %14.6g %-6s n=%d\n", rec.Workload, rec.Seed, m.Name, v.Value, v.Unit, v.N)
	}
	fmt.Fprintf(w, "%-16s seed=%-4d %-34s %14.6g %-6s n=%d\n", rec.Workload, rec.Seed, "error_rate", errorRate(rec.Failed, rec.Attempted), "ratio", rec.Attempted)
}

func errorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// resultLine is the final output line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary folds the runs into the final line: the run's metrics for a
// single run; otherwise each workload's median over its runs, keyed
// "workload/metric".
func summary(runs []runRecord) resultLine {
	line := resultLine{Metrics: map[string]resultValue{}}
	samples := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, v := range r.Metrics {
			key := name
			if len(runs) > 1 {
				key = r.Workload + "/" + name
			}
			samples[key] = append(samples[key], v.Value)
			units[key] = v.Unit
		}
	}
	for key, xs := range samples {
		line.Metrics[key] = resultValue{Value: stats.Median(xs), Unit: units[key]}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpans writes the traced runs' spans with the self time of every
// span name.
func writeSpans(path string, byRun map[string][]span) error {
	type tracedRun struct {
		SelfNS map[string]int64 `json:"self_ns"`
		Spans  []span           `json:"spans"`
	}
	out := make(map[string]tracedRun, len(byRun))
	for k, spans := range byRun {
		out[k] = tracedRun{SelfNS: selfTimes(spans), Spans: spans}
	}
	return writeJSON(path, out)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, errors.New(path + ": no runs")
	}
	return &f, nil
}
