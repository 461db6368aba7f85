package jobs

import (
	"errors"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssrank"
)

// wait blocks until j reaches a terminal state, failing the test on
// timeout, and returns the terminal outcome.
func wait(t *testing.T, j *Job) (State, *ssrank.Result, error) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, _, res, err := j.Status()
		if st == Done || st == Failed {
			return st, res, err
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", j.ID, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// eventTypes extracts the type sequence of a job's event log.
func eventTypes(j *Job) []string {
	log := j.EventsSince(0)
	out := make([]string, len(log))
	for i, ev := range log {
		out[i] = ev.Type
	}
	return out
}

// TestJobMatchesRun pins the service's ground truth: a job's outcome —
// even one computed across preemption cycles — is byte-identical to a
// direct ssrank.Run of the same Config, serially, sharded and on the
// message network, and that outcome is what the cache serves next.
func TestJobMatchesRun(t *testing.T) {
	lossy := ssrank.Faults{DropProb: 0.05}
	starved := ssrank.Faults{DropProb: 1}
	for _, pair := range [][2]ssrank.Config{
		{{N: 64, Seed: 3}, {N: 64, Seed: 4}},
		{{N: 64, Seed: 3, Shards: 4}, {N: 64, Seed: 4, Shards: 4}},
		// The network job is unconverged after its first slice while
		// the second job waits, so it must survive a preemption.
		{{N: 16, Seed: 1, Faults: lossy}, {N: 16, Seed: 2, Faults: lossy}},
		// A network that delivers nothing fails on its round budget,
		// which must count the rounds run before each preemption.
		{{N: 16, Seed: 1, Faults: starved, MaxInteractions: 10000}, {N: 16, Seed: 2, Faults: starved, MaxInteractions: 10000}},
	} {
		// A tiny slice forces many preempt/resume cycles even on a
		// short run whenever another job is queued.
		m := NewManager(Config{Workers: 1, SliceInteractions: 4096})
		a := mustSubmit(t, m, pair[0])
		b := mustSubmit(t, m, pair[1])
		for i, j := range []*Job{a, b} {
			st, res, err := wait(t, j)
			want, runErr := ssrank.Run(pair[i])
			if (st == Done) != (runErr == nil) || res == nil {
				t.Fatalf("%+v: state %s (%v), Run error %v", pair[i], st, err, runErr)
			}
			if !reflect.DeepEqual(*res, want) {
				t.Fatalf("%+v: job diverged from Run:\njob %+v\nrun %+v", pair[i], *res, want)
			}
		}
		log := eventTypes(a)
		if !slices.Contains(log, EventPreempted) {
			t.Fatalf("%+v: first job was never preempted", pair[0])
		}
		again := mustSubmit(t, m, pair[0])
		if got, want := eventTypes(again), []string{EventQueued, EventCached, log[len(log)-1]}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: re-submit events %v, want %v", pair[0], got, want)
		}
		m.Close()
	}
}

// TestCacheHitSkipsExecution re-submits an identical Config and
// requires the second job to be served from the cache: done
// immediately, carrying the identical Result, with no second
// execution started — including when only ShardWorkers differs, since
// the worker count is not part of the trajectory.
func TestCacheHitSkipsExecution(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()
	cfg := ssrank.Config{N: 64, Seed: 7}
	first, err := m.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, res1, _ := wait(t, first)

	again := cfg
	again.ShardWorkers = 3
	second, err := m.Submit(again)
	if err != nil {
		t.Fatal(err)
	}
	st, _, res2, _ := second.Status()
	if st != Done {
		t.Fatalf("re-submit state %s, want immediate %s", st, Done)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("cached result diverged:\nfirst  %+v\nsecond %+v", res1, res2)
	}
	if got := eventTypes(second); !reflect.DeepEqual(got, []string{EventQueued, EventCached, EventDone}) {
		t.Fatalf("cached job events %v", got)
	}
	if n := m.Started(); n != 1 {
		t.Fatalf("%d executions started, want 1 (cache must not re-execute)", n)
	}
}

// TestPreemptionRoundRobin submits a long job then a short one on a
// single worker with a small slice: the long job must be preempted
// (parked and requeued) so the short job completes first, and
// the long job must still finish with the exact Run result afterwards.
func TestPreemptionRoundRobin(t *testing.T) {
	m := NewManager(Config{Workers: 1, SliceInteractions: 2048})
	defer m.Close()
	long, err := m.Submit(ssrank.Config{N: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	short, err := m.Submit(ssrank.Config{N: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st, res, err := wait(t, short); st != Done {
		t.Fatalf("short job: %s %v %v", st, res, err)
	}
	if st, _, _, _ := long.Status(); st == Done || st == Failed {
		t.Fatal("long job finished before the short one despite a single worker")
	}
	_, resLong, _ := wait(t, long)
	preempted := false
	for _, typ := range eventTypes(long) {
		if typ == EventPreempted {
			preempted = true
		}
	}
	if !preempted {
		t.Fatal("long job was never preempted")
	}
	want, err := ssrank.Run(ssrank.Config{N: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*resLong, want) {
		t.Fatalf("preempted job diverged from Run:\njob %+v\nrun %+v", *resLong, want)
	}
}

// TestEventStreamOrdered follows a job through the Watch/EventsSince
// streaming interface and requires a gapless, ordered sequence ending
// in a terminal event — even though the producer appends events far
// faster than the reader drains (notifications coalesce, the log
// loses nothing).
func TestEventStreamOrdered(t *testing.T) {
	m := NewManager(Config{Workers: 1, SliceInteractions: 2048})
	defer m.Close()
	j, err := m.Submit(ssrank.Config{N: 96, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	notify, cancel := j.Watch()
	defer cancel()
	next, last := 0, ""
	drain := func() {
		for _, ev := range j.EventsSince(next) {
			if ev.Seq != next {
				t.Fatalf("event gap: %d, expected %d", ev.Seq, next)
			}
			next = ev.Seq + 1
			last = ev.Type
		}
	}
	for range notify {
		drain()
	}
	drain() // the tail appended between the last signal and the close
	if last != EventDone && last != EventFailed {
		t.Fatalf("stream ended on %q, want a terminal event", last)
	}
}

// TestSubmitRejectsInvalid propagates facade validation: an
// unregistered protocol fails at Submit, not at run time.
func TestSubmitRejectsInvalid(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	if _, err := m.Submit(ssrank.Config{N: 64, Protocol: "nope"}); err == nil {
		t.Fatal("invalid protocol accepted")
	}
	if _, err := m.Submit(ssrank.Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
}

// TestSubmitChargesStopTracker: admission charges the stop tracker
// beside the slab. An Interval run of 16 agents has a 128-byte slab,
// but ε = 67108862 makes its identifier space 2³⁰ and its tracker
// 16 GiB, so the default 1 GiB bound must refuse it before a worker
// tries to allocate the tracker; the default ε stays admitted.
// Admission runs before the closed check, so the refusal is asked of a
// closed manager: should admission let the job through, no worker
// could start it.
func TestSubmitChargesStopTracker(t *testing.T) {
	closed := NewManager(Config{Workers: 1, MaxSlabBytes: 1 << 30})
	closed.Close()
	_, err := closed.Submit(ssrank.Config{N: 16, Protocol: ssrank.Interval, Epsilon: 67108862})
	if !errors.Is(err, ErrSlabTooLarge) {
		t.Fatalf("Submit: %v, want ErrSlabTooLarge", err)
	}
	m := NewManager(Config{Workers: 1, MaxSlabBytes: 1 << 30})
	defer m.Close()
	j, err := m.Submit(ssrank.Config{N: 16, Protocol: ssrank.Interval, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st, _, err := wait(t, j); st != Done {
		t.Fatalf("default-ε Interval job ended %s: %v", st, err)
	}
}

// TestSubmitChargesPerAgentTracker: admission charges the exact stop's
// per-agent arrays, not only the slab. A serial StableRanking run of
// 2²⁰ agents has an 8 MiB slab, but its rank tracker (4 B per agent
// and per rank) and the serial loop's collision marks (4 B per agent)
// add 12 MiB, so a 16 MiB bound refuses it. The refusal is asked of a
// closed manager, as in TestSubmitChargesStopTracker.
func TestSubmitChargesPerAgentTracker(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxSlabBytes: 16 << 20})
	m.Close()
	if _, err := m.Submit(ssrank.Config{N: 1 << 20}); !errors.Is(err, ErrSlabTooLarge) {
		t.Fatalf("Submit: %v, want ErrSlabTooLarge", err)
	}
}

// TestKeyStability pins the cache-key semantics: keys are stable
// across calls, invariant under ShardWorkers and under
// normalization-equivalent spellings, and sensitive to every
// trajectory-relevant field.
func TestKeyStability(t *testing.T) {
	base := ssrank.Config{N: 64, Seed: 3}
	k1, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Key(base)
	if k1 != k2 {
		t.Fatal("key is not deterministic")
	}
	spelled := ssrank.Config{N: 64, Seed: 3, Protocol: ssrank.StableRanking, Init: "fresh", Epsilon: 1, Shards: 1, ShardWorkers: 9}
	if k3, _ := Key(spelled); k3 != k1 {
		t.Fatal("normalization-equivalent configs got different keys")
	}
	for name, variant := range map[string]ssrank.Config{
		"seed":     {N: 64, Seed: 4},
		"n":        {N: 65, Seed: 3},
		"protocol": {N: 64, Seed: 3, Protocol: ssrank.Cai},
		"shards":   {N: 64, Seed: 3, Shards: 4},
		"budget":   {N: 64, Seed: 3, MaxInteractions: 5},
		"faults":   {N: 64, Seed: 3, Faults: ssrank.Faults{DropProb: 0.5}},
	} {
		kv, err := Key(variant)
		if err != nil {
			t.Fatal(err)
		}
		if kv == k1 {
			t.Fatalf("%s variant collided with the base key", name)
		}
	}
}

// TestCacheSpillSurvivesRestart completes a job under a cache
// directory, tears the manager down, and re-submits the identical
// Config to a fresh manager over the same directory: the result must
// be served from disk without starting an execution.
func TestCacheSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := ssrank.Config{N: 64, Seed: 11, Shards: 2}
	m := NewManager(Config{Workers: 1, CacheDir: dir})
	j, err := m.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, res1, _ := wait(t, j)
	m.Close()

	m2 := NewManager(Config{Workers: 1, CacheDir: dir})
	defer m2.Close()
	j2, err := m2.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, _, res2, _ := j2.Status()
	if st != Done {
		t.Fatalf("restarted-manager submit state %s, want immediate %s", st, Done)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("spilled result diverged:\nfirst  %+v\nsecond %+v", res1, res2)
	}
	if n := m2.Started(); n != 0 {
		t.Fatalf("%d executions started after restart, want 0 (disk cache must serve)", n)
	}
}

// TestCacheLRUEviction pins the memory cap: with CacheMax 1 and no
// spill directory, a second distinct result evicts the first, so
// re-submitting the first config re-executes. With a spill directory,
// the evicted entry is still served from disk.
func TestCacheLRUEviction(t *testing.T) {
	cfgA := ssrank.Config{N: 48, Seed: 1}
	cfgB := ssrank.Config{N: 48, Seed: 2}
	m := NewManager(Config{Workers: 1, CacheMax: 1})
	wait(t, mustSubmit(t, m, cfgA))
	wait(t, mustSubmit(t, m, cfgB)) // evicts A
	wait(t, mustSubmit(t, m, cfgA)) // miss: must re-execute
	if n := m.Started(); n != 3 {
		t.Fatalf("%d executions started, want 3 (LRU must have evicted)", n)
	}
	m.Close()

	m2 := NewManager(Config{Workers: 1, CacheMax: 1, CacheDir: t.TempDir()})
	defer m2.Close()
	wait(t, mustSubmit(t, m2, cfgA))
	wait(t, mustSubmit(t, m2, cfgB)) // evicts A from memory, not disk
	j := mustSubmit(t, m2, cfgA)
	if st, _, _, _ := j.Status(); st != Done {
		t.Fatalf("evicted-entry submit state %s, want immediate %s via disk", st, Done)
	}
	if n := m2.Started(); n != 2 {
		t.Fatalf("%d executions started, want 2 (disk must absorb the eviction)", n)
	}
}

func mustSubmit(t *testing.T, m *Manager, cfg ssrank.Config) *Job {
	t.Helper()
	j, err := m.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// testDist is a DistRunner backed by real in-process worker loops over
// loopback TCP — the production RunDistributed path end to end. It
// declines serial configs, counting the runs it accepts.
type testDist struct {
	runs int64
}

func (d *testDist) Run(cfg ssrank.Config, onBatch func(int64)) (ssrank.Result, bool, error) {
	if cfg.Shards < 2 {
		return ssrank.Result{}, false, nil
	}
	atomic.AddInt64(&d.runs, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ssrank.Result{}, false, nil
	}
	defer ln.Close()
	var conns []net.Conn
	var wg sync.WaitGroup
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		wg.Wait()
	}()
	for i := 0; i < 2; i++ {
		wc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return ssrank.Result{}, false, nil
		}
		cc, err := ln.Accept()
		if err != nil {
			wc.Close()
			return ssrank.Result{}, false, nil
		}
		conns = append(conns, cc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ssrank.ServeWorker(wc)
			wc.Close()
		}()
	}
	res, err := ssrank.RunDistributed(cfg, ssrank.DistRun{Workers: conns, OnBatch: onBatch})
	if err != nil && !errors.Is(err, ssrank.ErrNotConverged) {
		return ssrank.Result{}, false, nil
	}
	return res, true, err
}

// TestDistJobMatchesInProcess routes a Workers>1 job through a real
// distributed fleet and requires the identical Result an in-process
// run produces, progress events on the stream, and one shared cache
// slot across execution paths (a later Workers=0 submission is a
// cache hit).
func TestDistJobMatchesInProcess(t *testing.T) {
	d := &testDist{}
	m := NewManager(Config{Workers: 1, SliceInteractions: 1, Dist: d})
	defer m.Close()
	cfg := ssrank.Config{N: 64, Seed: 5, Shards: 4, Workers: 2}
	j := mustSubmit(t, m, cfg)
	st, res, err := wait(t, j)
	if st != Done {
		t.Fatalf("dist job: %s %v", st, err)
	}
	if atomic.LoadInt64(&d.runs) != 1 {
		t.Fatalf("dist runner ran %d times, want 1", d.runs)
	}
	want, err := ssrank.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, want) {
		t.Fatalf("distributed job diverged from Run:\njob %+v\nrun %+v", *res, want)
	}
	progress := false
	for _, typ := range eventTypes(j) {
		if typ == EventProgress {
			progress = true
		}
	}
	if !progress {
		t.Fatal("distributed job emitted no progress events")
	}

	// Workers is execution-only: the in-process spelling of the same
	// run shares the cache slot the distributed run filled.
	serial := cfg
	serial.Workers = 0
	j2 := mustSubmit(t, m, serial)
	if st, _, _, _ := j2.Status(); st != Done {
		t.Fatalf("cross-path re-submit state %s, want immediate %s", st, Done)
	}
	if atomic.LoadInt64(&d.runs) != 1 {
		t.Fatalf("dist runner ran %d times, want 1 (cache must serve)", d.runs)
	}
}

// TestDistFallback pins the decline path: a fleet that refuses every
// run must be invisible — the job executes in-process and matches Run.
type declineDist struct{}

func (declineDist) Run(ssrank.Config, func(int64)) (ssrank.Result, bool, error) {
	return ssrank.Result{}, false, nil
}

func TestDistFallback(t *testing.T) {
	m := NewManager(Config{Workers: 1, Dist: declineDist{}})
	defer m.Close()
	cfg := ssrank.Config{N: 48, Seed: 6, Shards: 2, Workers: 4}
	st, res, err := wait(t, mustSubmit(t, m, cfg))
	if st != Done {
		t.Fatalf("fallback job: %s %v", st, err)
	}
	want, err := ssrank.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, want) {
		t.Fatalf("fallback job diverged from Run:\njob %+v\nrun %+v", *res, want)
	}
}

// TestDistBudgetExhausted checks a distributed budget failure lands
// exactly like an in-process one: state Failed, the jobs-layer
// message, the partial Result attached.
func TestDistBudgetExhausted(t *testing.T) {
	d := &testDist{}
	m := NewManager(Config{Workers: 1, Dist: d})
	defer m.Close()
	cfg := ssrank.Config{N: 40, Seed: 3, Shards: 4, Workers: 2, MaxInteractions: 2048}
	st, res, err := wait(t, mustSubmit(t, m, cfg))
	if st != Failed {
		t.Fatalf("state %s, want %s", st, Failed)
	}
	if want := "jobs: stable did not converge within 2048 interactions"; err == nil || err.Error() != want {
		t.Fatalf("err %v, want %q", err, want)
	}
	if res == nil || res.Interactions != 2048 {
		t.Fatalf("partial result %+v, want 2048 interactions", res)
	}
}

// TestStarvedNetworkJobFails submits a message-network job whose
// network delivers nothing (DropProb 1): no slice ever reaches the
// interaction budget, so only the round backstop can end it. The job
// must fail as not converged, with the partial Result Run reports.
func TestStarvedNetworkJobFails(t *testing.T) {
	m := NewManager(Config{Workers: 1, SliceInteractions: 64})
	defer m.Close()
	cfg := ssrank.Config{N: 16, Seed: 1, Faults: ssrank.Faults{DropProb: 1}, MaxInteractions: 200}
	j := mustSubmit(t, m, cfg)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _, res, err := j.Status()
		if st == Failed {
			if want := "jobs: stable did not converge within 200 interactions"; err == nil || err.Error() != want {
				t.Fatalf("err %v, want %q", err, want)
			}
			want, _ := ssrank.Run(cfg)
			if res == nil || !reflect.DeepEqual(*res, want) {
				t.Fatalf("partial result %+v, want Run's %+v", res, want)
			}
			return
		}
		if st == Done || time.Now().After(deadline) {
			t.Fatalf("starved job in state %s after %d events, want %s", st, len(j.EventsSince(0)), Failed)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
