package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"ssrank"
	"ssrank/internal/stats"
)

// workloadNames lists the workloads in the order a full run executes
// them. Why each exists is recorded in BENCHMARK.json and bench/README.md.
var workloadNames = []string{"serial-stabilize", "replicate-sweep", "sharded-large", "dist-fleet", "jobs-service"}

// workload is one set of inputs the benchmark runs. A fresh value serves
// one use: start, measure (and verify), then either report end-to-end
// metrics or replay the measured operations under tracing.
type workload interface {
	// start brings up what the workload talks to (worker processes, the
	// job server); it is the part of set-up that is not input generation.
	start(e *env) error
	// stop ends every process start started and waits for each.
	stop()
	// measure runs timed operations until d has elapsed, at least one,
	// checking each output as it arrives. A probe runs one short
	// operation instead (see sizes).
	measure(e *env, d time.Duration, probe bool)
	// verify runs the untimed output checks that need a reference
	// computed after the timed loop.
	verify(e *env)
	// endToEnd returns the end-to-end metrics of the measured operations.
	endToEnd() metrics
	// trace replays the measured operations with spans around every
	// layer call, checks that the replay reproduced them, and records the
	// workload's per-layer metrics in e.layer. It returns the tracing
	// overhead (traced ÷ untraced − 1) and the closure gap (the share of
	// the untraced time the layer self times do not explain).
	trace(e *env) (overhead, gap float64)
	// interactions is the number of interactions the measured operations
	// executed.
	interactions() int64
	// pids lists the live helper processes doing the workload's work.
	pids() []int
}

func newWorkload(name string) workload {
	switch name {
	case "serial-stabilize":
		return &serialStabilize{}
	case "replicate-sweep":
		return &replicateSweep{}
	case "sharded-large":
		return &shardedLarge{}
	case "dist-fleet":
		return &distFleet{}
	case "jobs-service":
		return &jobsService{}
	}
	return nil
}

// sizes are the problem sizes of one scale. The full scale is the
// benchmark; the smoke scale runs the same code on toy inputs in
// seconds, for the test that keeps the harness working.
type sizes struct {
	serialN int

	repN, repTrials, repProbeTrials int

	shardN                                 int
	shardBudget, shardProbe, surfaceBudget int64

	distN                 int
	distBudget, distProbe int64

	jobsN, jobsLongN int
	jobsProbe        time.Duration

	ckptSmallN, ckptLargeN int
}

var scales = map[string]sizes{
	"full": {
		serialN: 1024, repN: 256, repTrials: 50, repProbeTrials: 16,
		shardN: 1 << 22, shardBudget: 20_000_000, shardProbe: 5_000_000, surfaceBudget: 5_000_000,
		distN: 1 << 20, distBudget: 2_000_000, distProbe: 300_000,
		jobsN: 128, jobsLongN: 512, jobsProbe: 1500 * time.Millisecond,
		ckptSmallN: 512, ckptLargeN: 1 << 22,
	},
	"smoke": {
		serialN: 64, repN: 32, repTrials: 6, repProbeTrials: 4,
		shardN: 1 << 14, shardBudget: 100_000, shardProbe: 50_000, surfaceBudget: 50_000,
		distN: 1 << 14, distBudget: 50_000, distProbe: 20_000,
		jobsN: 24, jobsLongN: 48, jobsProbe: 300 * time.Millisecond,
		ckptSmallN: 64, ckptLargeN: 1 << 14,
	},
}

// env is the context of one workload process: its inputs, the binaries
// it may start, and where its checks and per-layer metrics go.
type env struct {
	size   sizes
	seed   uint64
	bin    string // directory holding the tool binaries
	runDir string // scratch directory for sockets, relative to the checkout root
	chk    checker
	tr     *tracer
	layer  metrics
}

// metrics maps metric names to measured values.
type metrics map[string]value

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = value{Value: v, Unit: unit, N: n}
}

// checker counts output checks: attempted, and failed with a reason.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// permutation reports whether ranks hold every value 1..len(ranks) once.
func permutation(ranks []int) bool {
	seen := make([]bool, len(ranks)+1)
	for _, r := range ranks {
		if r < 1 || r > len(ranks) || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

// converged checks a run that must reach a valid ranking.
func (c *checker) converged(what string, res ssrank.Result, err error) {
	c.check(err == nil && res.Converged && permutation(res.Ranks),
		"%s: want a converged run whose ranks permute 1..%d (err %v, converged %v)", what, len(res.Ranks), err, res.Converged)
}

// budgeted checks a run whose budget runs out first: it must report
// exactly the budget, with ErrNotConverged.
func (c *checker) budgeted(what string, res ssrank.Result, err error, budget int64) {
	c.check(errors.Is(err, ssrank.ErrNotConverged) && res.Interactions == budget,
		"%s: want ErrNotConverged after exactly %d interactions, got %d (err %v)", what, budget, res.Interactions, err)
}

// runOp is one timed call that returned one Result. The rank vector is
// kept only as a digest (at n = 2²² it is 32 MB), so what the benchmark
// holds does not grow with the number of operations in the window.
type runOp struct {
	cfg   ssrank.Config
	res   ssrank.Result // Ranks dropped
	ranks [32]byte      // digestRanks of the dropped Ranks
	wall  time.Duration
}

func newRunOp(cfg ssrank.Config, res ssrank.Result, wall time.Duration) runOp {
	op := runOp{cfg: cfg, res: res, ranks: digestRanks(res.Ranks), wall: wall}
	op.res.Ranks = nil
	return op
}

// digestRanks is the SHA-256 of a rank vector, hashed in small chunks
// so that the digest adds nothing to the peak memory being measured.
func digestRanks(ranks []int) [32]byte {
	h := sha256.New()
	var buf [4096]byte
	for len(ranks) > 0 {
		k := min(len(ranks), len(buf)/8)
		for i, r := range ranks[:k] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(r))
		}
		h.Write(buf[:8*k])
		ranks = ranks[k:]
	}
	return [32]byte(h.Sum(nil))
}

// digestResult is the SHA-256 of a Result's JSON encoding, which is
// canonical (fields in declaration order, map keys sorted): equal
// digests mean equal Results.
func digestResult(res ssrank.Result) [32]byte {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		panic(err) // a Result holds only encodable fields
	}
	return [32]byte(h.Sum(nil))
}

// runMetrics reports the end-to-end metrics of workloads whose
// operation is one run: wall time per interaction (the median over
// runs, so one run slowed by the machine does not move it), runs per
// second, and the latency of one run.
func runMetrics(ops []runOp, peakMB float64) metrics {
	var wall time.Duration
	lat := make([]time.Duration, len(ops))
	perStep := make([]float64, len(ops))
	for i, op := range ops {
		wall += op.wall
		lat[i] = op.wall
		perStep[i] = perUnit(op.wall, op.res.Interactions)
	}
	m := metrics{}
	m.set("ns_per_interaction", stats.Median(perStep), "ns", len(ops))
	m.set("results_per_s", float64(len(ops))/wall.Seconds(), "1/s", len(ops))
	m.set("latency_ms_p50", stats.Median(millis(lat)), "ms", len(ops))
	m.set("latency_ms_p90", stats.Quantile(millis(lat), 0.9), "ms", len(ops))
	m.set("peak_rss_mb", peakMB, "MB", 1)
	return m
}

// freshHeap collects the previous operation's garbage and returns it to
// the operating system, outside the clock, so that each operation that
// allocates hundreds of megabytes starts from the heap a fresh process
// has: its time includes faulting its memory in, as a one-run process's
// does, whatever ran before it in the window.
func freshHeap() { debug.FreeOSMemory() }

// inProcess is the no-op start/stop/pids of workloads that run entirely
// inside the benchmark process.
type inProcess struct{}

func (inProcess) start(*env) error { return nil }
func (inProcess) stop()            {}
func (inProcess) pids() []int      { return nil }
func (inProcess) verify(*env)      {}

// runOps is the interactions method of workloads built on runOp.
type runOps []runOp

func (o runOps) interactions() int64 {
	var n int64
	for _, op := range o {
		n += op.res.Interactions
	}
	return n
}
