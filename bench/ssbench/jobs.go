package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ssrank"
	"ssrank/internal/rng"
	"ssrank/internal/stats"
)

// jobClients is the closed loop's client count: one per core of the
// two-core recording machine. Each client submits its next job only
// after the previous one reached its terminal event.
const jobClients = 2

// jobsService is the service path: ssrankd with one worker, fed by a
// closed loop of jobClients clients. With more clients than workers a
// queue always exists, so long jobs are checkpointed and preempted at
// every slice boundary; re-submitted configurations are answered from
// the result cache.
type jobsService struct {
	daemon *helper
	base   string
	client *http.Client
	d      time.Duration // length of the measured loop, replayed by trace
	jobs   []jobOutcome
	wall   time.Duration
	peakMB float64
}

// jobSpec is one submission of the job mix.
type jobSpec struct {
	index int
	kind  string // "fixed" (one of the re-submitted configs), "fresh" or "long"
	fixed int    // which fixed config, -1 otherwise
	cfg   ssrank.Config
}

// jobMix is the seeded job sequence the clients share: job i is a pure
// function of (seed, i), whichever client takes it.
//   - Every 32nd job is long: n = 4·jobsN from the worst case (~3%, which
//     keeps long jobs under 5% of executed jobs, so the p90 latency
//     measures short jobs delayed by preemption, not the long class).
//   - Of the rest, 31% re-submit one of 8 fixed configurations (cache
//     hits once each has run), and the others are fresh runs.
type jobMix struct {
	mu    sync.Mutex
	r     *rng.RNG
	fixed []ssrank.Config
	next  int
	sz    sizes
}

func newJobMix(seed uint64, sz sizes) *jobMix {
	r := rng.New(seed ^ 0x10b5)
	fixed := make([]ssrank.Config, 8)
	for i := range fixed {
		fixed[i] = ssrank.Config{N: sz.jobsN, Seed: r.Uint64()}
	}
	return &jobMix{r: r, fixed: fixed, sz: sz}
}

func (m *jobMix) take() jobSpec {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.next
	m.next++
	u, s := m.r.Float64(), m.r.Uint64()
	switch {
	case i%32 == 31:
		return jobSpec{index: i, kind: "long", fixed: -1, cfg: ssrank.Config{N: m.sz.jobsLongN, Init: ssrank.InitWorstCase, Seed: s}}
	case u < 0.31:
		k := int(s % uint64(len(m.fixed)))
		return jobSpec{index: i, kind: "fixed", fixed: k, cfg: m.fixed[k]}
	default:
		return jobSpec{index: i, kind: "fresh", fixed: -1, cfg: ssrank.Config{N: m.sz.jobsN, Seed: s}}
	}
}

// jobOutcome is what a client observed of one job, timed by the arrival
// of its server-sent events.
type jobOutcome struct {
	spec   jobSpec
	start  time.Time
	submit time.Duration // POST /jobs round trip
	// wait is the time queued (before the first start and between a
	// preemption and the next start), run the time running, both as the
	// event stream reported them.
	wait, run time.Duration
	latency   time.Duration // POST to the terminal event
	cached    bool
	preempted int
	sseBytes  int64
	result    json.RawMessage
	res       ssrank.Result
	err       string
}

func (w *jobsService) start(e *env) error {
	var err error
	for range 3 { // another process may take the free port before the daemon binds it
		if err = w.startDaemon(e); err == nil {
			w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * jobClients, DisableCompression: true}}
			return nil
		}
	}
	return err
}

func (w *jobsService) startDaemon(e *env) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()
	h, err := startHelper(filepath.Join(e.bin, "ssrankd"), "-addr", addr, "-workers", "1")
	if err != nil {
		return err
	}
	base := "http://" + addr
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline) && h.alive(); time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			w.daemon, w.base = h, base
			return nil
		}
	}
	h.stop()
	return fmt.Errorf("ssrankd on %s did not become healthy", addr)
}

func (w *jobsService) stop() {
	if w.daemon != nil {
		w.daemon.stop()
		w.daemon = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

func (w *jobsService) pids() []int {
	if w.daemon == nil {
		return nil
	}
	return []int{w.daemon.pid()}
}

func (w *jobsService) measure(e *env, d time.Duration, probe bool) {
	if probe {
		d = e.size.jobsProbe
	}
	w.d = d
	w.jobs, w.wall = w.loop(e, d)
	w.peakMB = peakRSSMB(w.daemon.pid())
}

func (w *jobsService) verify(*env) {}

func (w *jobsService) interactions() int64 {
	var n int64
	for _, o := range w.jobs {
		if !o.cached {
			n += o.res.Interactions
		}
	}
	return n
}

// endToEnd reports jobs per second, wall time per interaction the
// service executed, and the latency of executed jobs (cache hits have
// their own per-layer metric).
func (w *jobsService) endToEnd() metrics {
	lat := executed(w.jobs, func(o jobOutcome) time.Duration { return o.latency })
	m := metrics{}
	m.set("ns_per_interaction", float64(w.wall.Nanoseconds())/float64(w.interactions()), "ns", len(lat))
	m.set("results_per_s", float64(len(w.jobs))/w.wall.Seconds(), "1/s", len(w.jobs))
	m.set("latency_ms_p50", stats.Median(lat), "ms", len(lat))
	m.set("latency_ms_p90", stats.Quantile(lat, 0.9), "ms", len(lat))
	m.set("peak_rss_mb", w.peakMB, "MB", 1)
	return m
}

// executed returns f of every executed (not cache-served) job, in ms.
func executed(jobs []jobOutcome, f func(jobOutcome) time.Duration) []float64 {
	var out []time.Duration
	for _, o := range jobs {
		if !o.cached {
			out = append(out, f(o))
		}
	}
	return millis(out)
}

// trace runs the same job sequence for the same time against a fresh
// daemon, so it meets the same cold cache, and reads the service's
// layers off the event timelines: submission, queueing, running,
// preemption, and the cache.
func (w *jobsService) trace(e *env) (overhead, gap float64) {
	w.stop()
	if err := w.start(e); !e.chk.check(err == nil, "restarting ssrankd: %v", err) {
		return 0, 0
	}
	jobs, _ := w.loop(e, w.d)
	untraced := make(map[int]jobOutcome, len(w.jobs))
	for _, o := range w.jobs {
		untraced[o.spec.index] = o
	}
	var cached, submit []time.Duration
	var sse int64
	var ran, preempted int
	var explained time.Duration
	for _, o := range jobs {
		if u, ok := untraced[o.spec.index]; ok {
			e.chk.check(bytes.Equal(u.result, o.result), "job %d returned different results in the untraced and the traced loop", o.spec.index)
		}
		id := e.tr.add(0, "jobs.job", o.start, o.start.Add(o.latency), 1, whole)
		e.tr.add(id, "ssrankd.submit", o.start, o.start.Add(o.submit), 1, whole)
		e.tr.add(id, "jobs.queue_wait", o.start, o.start.Add(o.latency), 1, o.wait)
		e.tr.add(id, "jobs.run", o.start, o.start.Add(o.latency), int64(o.preempted+1), o.run)
		submit = append(submit, o.submit)
		sse += o.sseBytes
		if o.cached {
			cached = append(cached, o.latency)
		} else {
			ran++
			preempted += o.preempted
			explained += o.submit + o.wait + o.run
		}
	}
	n := len(jobs)
	wait := executed(jobs, func(o jobOutcome) time.Duration { return o.wait })
	run := executed(jobs, func(o jobOutcome) time.Duration { return o.run })
	e.layer.set("jobs.queue_wait_ms_p50", stats.Median(wait), "ms", ran)
	e.layer.set("jobs.run_ms_p50", stats.Median(run), "ms", ran)
	e.layer.set("jobs.preempted_per_job", float64(preempted)/float64(ran), "count", ran)
	e.layer.set("jobs.cache_hit_frac", float64(len(cached))/float64(n), "ratio", n)
	e.layer.set("jobs.cached_latency_ms_p50", stats.Median(millis(cached)), "ms", len(cached))
	e.layer.set("ssrankd.submit_ms_p50", stats.Median(millis(submit)), "ms", n)
	e.layer.set("ssrankd.sse_bytes_per_job", float64(sse)/float64(n), "B", n)

	tracedLat := executed(jobs, func(o jobOutcome) time.Duration { return o.latency })
	untracedLat := executed(w.jobs, func(o jobOutcome) time.Duration { return o.latency })
	meanExplained := float64(explained.Nanoseconds()) / 1e6 / float64(ran)
	return stats.Median(tracedLat)/stats.Median(untracedLat) - 1, 1 - meanExplained/stats.Mean(untracedLat)
}

// loop runs the closed loop for d (and on, should no cache hit have
// happened yet, so every layer metric has a sample) and checks every
// job's output: a converged permutation, and for re-submitted configs
// the same result bytes every time.
func (w *jobsService) loop(e *env, d time.Duration) ([]jobOutcome, time.Duration) {
	mix := newJobMix(e.seed, e.size)
	var (
		mu   sync.Mutex
		jobs []jobOutcome
		hits int
		wg   sync.WaitGroup
	)
	start := time.Now()
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		elapsed := time.Since(start)
		return elapsed < d || (hits == 0 && elapsed < d+30*time.Second)
	}
	for range jobClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				o := w.do(mix.take())
				mu.Lock()
				jobs = append(jobs, o)
				if o.cached {
					hits++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	e.chk.check(hits > 0, "no re-submitted job was served from the result cache in %v", wall)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].spec.index < jobs[j].spec.index })
	first := make(map[int]json.RawMessage)
	for _, o := range jobs {
		ok := e.chk.check(o.err == "" && o.res.Converged && permutation(o.res.Ranks),
			"job %d (%s, n=%d): want a converged permutation (error %q)", o.spec.index, o.spec.kind, o.spec.cfg.N, o.err)
		if !ok || o.spec.fixed < 0 {
			continue
		}
		if prev, seen := first[o.spec.fixed]; seen {
			e.chk.check(bytes.Equal(prev, o.result), "job %d (cached %v) returned a different result than the first run of fixed config %d", o.spec.index, o.cached, o.spec.fixed)
		} else {
			first[o.spec.fixed] = o.result
		}
	}
	return jobs, wall
}

// do submits one job and follows its event stream to the terminal event.
func (w *jobsService) do(spec jobSpec) jobOutcome {
	o := jobOutcome{spec: spec, start: time.Now()}
	if err := w.follow(&o); err != nil {
		o.err = err.Error()
	}
	return o
}

func (w *jobsService) follow(o *jobOutcome) error {
	body, err := json.Marshal(o.spec.cfg)
	if err != nil {
		return err
	}
	resp, err := w.client.Post(w.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return fmt.Errorf("POST /jobs: status %d (%v)", resp.StatusCode, err)
	}
	mark := time.Now()
	o.submit = mark.Sub(o.start)

	resp, err = w.client.Get(w.base + "/jobs/" + sub.ID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	running := false
	var typ string
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		o.sseBytes += int64(len(line))
		if err != nil {
			return fmt.Errorf("event stream of %s ended before a terminal event: %w", sub.ID, err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if v, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			typ = string(v)
			continue
		}
		if v, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			data = v
			continue
		}
		if len(line) != 0 {
			continue
		}
		now := time.Now()
		switch typ {
		case "started":
			o.wait += now.Sub(mark)
			mark, running = now, true
		case "preempted":
			o.run += now.Sub(mark)
			mark, running = now, false
			o.preempted++
		case "cached":
			o.cached = true
		case "done", "failed":
			if running {
				o.run += now.Sub(mark)
			}
			o.latency = now.Sub(o.start)
			// The daemon ends the stream after the terminal event; drain it
			// so the connection can serve the next request.
			io.Copy(io.Discard, br)
			var ev struct {
				Result json.RawMessage `json:"result"`
				Err    string          `json:"error"`
			}
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("%s %s event: %w", sub.ID, typ, err)
			}
			if typ == "failed" {
				return errors.New(ev.Err)
			}
			o.result = ev.Result
			return json.Unmarshal(ev.Result, &o.res)
		}
		typ = ""
	}
}
