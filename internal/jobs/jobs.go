// Package jobs turns the facade's stepwise simulations into a
// concurrent job service: a bounded worker pool draining a FIFO queue
// of submitted Configs, with ordered per-job event streams (the
// Replicate OnCommit shape: every subscriber sees the same events in
// the same order), preemption when the queue backs up, and a
// content-addressed result cache.
//
// A preempted job parks its live Simulation in the queue and any
// worker later continues it, on every engine including the message
// network, so preemption never changes the result. Determinism does
// the rest: a run is a pure function of its canonical Config, so a
// completed result can be served to every later submission of the
// same canonical Config without re-execution. The cache key is the
// stable hash of exactly the fields the trajectory depends on — see
// Key.
package jobs

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ssrank"
	"ssrank/internal/sim/shard"
)

// State is a job's lifecycle phase.
type State string

const (
	// Queued jobs wait in the FIFO queue (fresh or preempted).
	Queued State = "queued"
	// Running jobs hold a worker.
	Running State = "running"
	// Done jobs completed; Result is set. A done job may have been
	// served from the cache without executing (EventCached).
	Done State = "done"
	// Failed jobs hit an error (invalid config or a run that exhausted
	// its interaction budget without converging); Err is set.
	Failed State = "failed"
)

// Event types, in the order a job can emit them.
const (
	EventQueued    = "queued"    // entered the FIFO queue
	EventStarted   = "started"   // claimed by a worker
	EventProgress  = "progress"  // completed a slice; Steps is current
	EventPreempted = "preempted" // parked and requeued
	EventCached    = "cached"    // served from the result cache
	EventDone      = "done"      // completed; Result is attached
	EventFailed    = "failed"    // errored; Err is attached
)

// Event is one entry of a job's ordered event log.
type Event struct {
	// Seq is the event's position in the job's log, from 0 up.
	Seq int `json:"seq"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Steps is the job's interaction count when the event fired.
	Steps int64 `json:"steps,omitempty"`
	// Result is attached to EventDone.
	Result *ssrank.Result `json:"result,omitempty"`
	// Err is attached to EventFailed.
	Err string `json:"error,omitempty"`
}

// Job is one submitted run. All fields are immutable after Submit;
// the mutable lifecycle is read through Status and Events.
type Job struct {
	// ID names the job (sequential, unique per Manager).
	ID string
	// Config is the canonical configuration the job executes
	// (ssrank.Config.Normalized of the submitted one).
	Config ssrank.Config
	// Key is the job's cache key (Key of the submitted Config).
	Key string

	m *Manager

	// Guarded by m.mu: jobs are few and their state transitions are
	// cheap, so one manager-wide lock keeps queue, cache and event
	// ordering trivially consistent.
	state  State
	steps  int64
	sim    *ssrank.Simulation // a preempted job's parked run; nil otherwise
	result *ssrank.Result
	err    error
	events []Event
	subs   map[chan struct{}]struct{}
}

// Status returns the job's current lifecycle phase, its interaction
// count, its Result (Done only) and its error (Failed only).
func (j *Job) Status() (State, int64, *ssrank.Result, error) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.state, j.steps, j.result, j.err
}

// EventsSince returns the log entries with Seq >= from. The log is
// append-only and events are never dropped, so a reader that remembers
// the next sequence number it expects can always catch up exactly —
// the pull half of the streaming interface (Watch is the push half).
func (j *Job) EventsSince(from int) []Event {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(j.events) {
		return nil
	}
	return append([]Event(nil), j.events[from:]...)
}

// Watch returns a channel that receives a (coalesced) signal whenever
// the job appends events and is closed once the job reaches a terminal
// state. A streaming reader loops: drain EventsSince(next), block on
// the channel, repeat; after the channel closes, one final
// EventsSince drains the tail. Notifications coalesce but the log
// loses nothing, so a reader slower than the run still sees every
// event in order. cancel stops watching (safe after close).
func (j *Job) Watch() (notify <-chan struct{}, cancel func()) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	ch := make(chan struct{}, 1)
	if j.state == Done || j.state == Failed {
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	return ch, func() {
		j.m.mu.Lock()
		defer j.m.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// emit appends an event to the job's log and nudges the watchers.
// Callers hold m.mu. Terminal events close every subscription.
func (j *Job) emit(typ string, mut func(*Event)) {
	ev := Event{Seq: len(j.events), Type: typ, Steps: j.steps}
	if mut != nil {
		mut(&ev)
	}
	j.events = append(j.events, ev)
	terminal := typ == EventDone || typ == EventFailed
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default: // already nudged; the reader will catch up from the log
		}
		if terminal {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// cacheEntry is a completed run: the deterministic outcome of one
// canonical Config.
type cacheEntry struct {
	result *ssrank.Result
	err    error
}

// lruEntry is a cacheEntry on the recency list; the map indexes the
// list elements so hit, insert and evict are all O(1).
type lruEntry struct {
	key string
	e   cacheEntry
}

// spillEntry is the on-disk form of a cacheEntry: plain JSON, one file
// per key under the cache directory. Errors survive as their message —
// the only terminal errors worth caching are deterministic outcomes
// (budget exhaustion), which the jobs layer represents as flat strings
// anyway.
type spillEntry struct {
	Result *ssrank.Result `json:"result,omitempty"`
	Err    string         `json:"error,omitempty"`
}

// DistRunner executes one run on a distributed worker fleet (see
// ssrank.RunDistributed; cmd/ssrankd's worker pool implements this).
// ok = false means the fleet declined — no live workers, a config the
// distributed engine does not cover, or an infrastructure failure —
// and the manager falls back to in-process execution; determinism
// makes the substitution invisible in the Result. A non-nil error is
// reserved for deterministic outcomes (budget exhaustion, with the
// partial Result attached). onBatch receives committed interaction
// totals at batch barriers for progress reporting.
type DistRunner interface {
	Run(cfg ssrank.Config, onBatch func(steps int64)) (ssrank.Result, bool, error)
}

// Config configures a Manager.
type Config struct {
	// Workers is the worker-pool size; < 1 means 1.
	Workers int
	// SliceInteractions is how many interactions a job may run per
	// scheduling slice before the manager considers preempting it
	// (only when other jobs are queued). < 1 picks a default. Sharded
	// jobs round the slice up to a multiple of their engine's batch
	// period, keeping slice ends barrier-aligned so slicing never
	// changes the trajectory.
	SliceInteractions int64
	// CacheMax caps the in-memory result cache (entries); the least
	// recently used entry is evicted past the cap. < 1 picks a
	// default (256). Evicted entries remain servable from CacheDir
	// when one is configured.
	CacheMax int
	// CacheDir, when set, persists every completed result as a JSON
	// spill file named by the job's cache key. Overflow from the
	// in-memory cache and results from earlier manager lifetimes are
	// served from disk (and promoted back into memory) on the next
	// submission of the same canonical Config — the cache survives
	// restarts.
	CacheDir string
	// Dist, when set, offers jobs whose canonical Config.Workers > 1
	// to the distributed fleet when they first start. Distributed
	// jobs run to completion without preemption.
	Dist DistRunner
	// MaxSlabBytes, when positive, is the largest agent slab a job may
	// build: Submit refuses a Config whose N × the protocol's
	// Descriptor.AgentBytes, plus the sharded engine's cross-class
	// state (Shards(Shards−1)/2 × shard.ClassBytes) and the exact
	// stop's state (Descriptor.TrackerBytes: the tracker's arrays, plus
	// the serial loop's collision marks), exceeds it with
	// ErrSlabTooLarge, before anything is sized by N or Shards. The
	// bound covers the one slab a job builds on either in-place engine:
	// the sharded engine's exact stop folds touch records into the live
	// slab and keeps no second copy of the population. A StableRanking
	// job takes about 9.5 B per agent on either engine (4 B of agent,
	// 4 B of cached rank, 1 B of rank multiplicity and at most 0.5 B of
	// their spill map; the serial loop's marks are 32 KiB whatever N),
	// so 1 GiB admits about 113 million agents. Zero means no bound.
	MaxSlabBytes int64
}

// ErrSlabTooLarge is Submit's refusal of a job whose agent slab would
// exceed Config.MaxSlabBytes.
var ErrSlabTooLarge = errors.New("jobs: agent slab exceeds the admission bound")

// defaultCacheMax bounds the in-memory cache when Config.CacheMax is
// unset: big enough for any test or interactive workload, small
// enough that parameter sweeps cannot grow the heap without bound.
const defaultCacheMax = 256

// defaultSlice is the default scheduling slice: large enough that
// small jobs finish in one slice, small enough that a backed-up queue
// gets service promptly.
const defaultSlice = 1 << 18

// Manager owns the queue, the worker pool and the result cache.
type Manager struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Job
	jobs     map[string]*Job
	cache    map[string]*list.Element // key -> *lruEntry element on lru
	lru      *list.List               // front = most recently used
	cacheMax int
	cacheDir string
	dist     DistRunner
	slice    int64
	maxSlab  int64
	nextID   int
	closed   bool
	wg       sync.WaitGroup
	started  int64 // executions begun (not cache hits); tests read this
}

// NewManager starts a Manager with cfg.Workers workers.
func NewManager(cfg Config) *Manager {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.SliceInteractions < 1 {
		cfg.SliceInteractions = defaultSlice
	}
	if cfg.CacheMax < 1 {
		cfg.CacheMax = defaultCacheMax
	}
	if cfg.CacheDir != "" {
		os.MkdirAll(cfg.CacheDir, 0o755)
	}
	m := &Manager{
		jobs:     make(map[string]*Job),
		cache:    make(map[string]*list.Element),
		lru:      list.New(),
		cacheMax: cfg.CacheMax,
		cacheDir: cfg.CacheDir,
		dist:     cfg.Dist,
		slice:    cfg.SliceInteractions,
		maxSlab:  cfg.MaxSlabBytes,
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go m.worker()
	}
	return m
}

// Close stops the workers. Running jobs are parked back into the queue
// (state Queued) at their next slice end rather than aborted; queued
// work is left pending. Close blocks until every worker has exited.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// Submit validates and canonicalizes cfg, then either serves the job
// from the result cache (identical canonical Config already completed
// — the job is returned in state Done without executing anything) or
// appends it to the FIFO queue.
func (m *Manager) Submit(cfg ssrank.Config) (*Job, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if m.maxSlab > 0 {
		d, _ := ssrank.Describe(norm.Protocol)
		classes := float64(norm.Shards) * float64(norm.Shards-1) / 2
		slab := float64(norm.N)*float64(d.AgentBytes) + classes*shard.ClassBytes
		if slab > float64(m.maxSlab) {
			return nil, fmt.Errorf("%w: %d agents of %d bytes and %.0f cross classes of %d bytes is %.0f bytes, bound %d",
				ErrSlabTooLarge, norm.N, d.AgentBytes, classes, shard.ClassBytes, slab, m.maxSlab)
		}
		// Checked second: the slab bound keeps N small enough to build
		// the protocol that sizes the tracker.
		if tracker := d.TrackerBytes(norm); slab+float64(tracker) > float64(m.maxSlab) {
			return nil, fmt.Errorf("%w: a %.0f-byte slab and a %d-byte stop tracker exceed the bound %d",
				ErrSlabTooLarge, slab, tracker, m.maxSlab)
		}
	}
	key, err := Key(norm)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("jobs: manager is closed")
	}
	j := &Job{
		ID:     fmt.Sprintf("job-%d", m.nextID),
		Config: norm,
		Key:    key,
		m:      m,
		state:  Queued,
		subs:   make(map[chan struct{}]struct{}),
	}
	m.nextID++
	m.jobs[j.ID] = j
	j.emit(EventQueued, nil)
	if hit, ok := m.cacheGet(key); ok {
		m.finish(j, hit.result, hit.err, true)
		return j, nil
	}
	m.queue = append(m.queue, j)
	m.cond.Signal()
	return j, nil
}

// cacheGet looks a key up in the in-memory cache, falling back to the
// disk spill (promoting a disk hit back into memory). Callers hold
// m.mu.
func (m *Manager) cacheGet(key string) (cacheEntry, bool) {
	if el, ok := m.cache[key]; ok {
		m.lru.MoveToFront(el)
		return el.Value.(*lruEntry).e, true
	}
	if m.cacheDir == "" {
		return cacheEntry{}, false
	}
	e, ok := m.readSpill(key)
	if !ok {
		return cacheEntry{}, false
	}
	m.cachePut(key, e)
	return e, true
}

// cachePut inserts (or refreshes) an entry and evicts past the cap,
// least recently used first. Eviction only drops the in-memory copy:
// with a cache directory configured every completed entry was already
// spilled write-through, so evicted results stay servable from disk.
// Callers hold m.mu.
func (m *Manager) cachePut(key string, e cacheEntry) {
	if el, ok := m.cache[key]; ok {
		el.Value.(*lruEntry).e = e
		m.lru.MoveToFront(el)
	} else {
		m.cache[key] = m.lru.PushFront(&lruEntry{key: key, e: e})
	}
	for m.lru.Len() > m.cacheMax {
		el := m.lru.Back()
		m.lru.Remove(el)
		delete(m.cache, el.Value.(*lruEntry).key)
	}
}

// writeSpill persists an entry under the cache directory, named by its
// key (hex SHA-256 — filesystem-safe by construction). Best effort: a
// full disk degrades the cache, not the job. The write goes to a temp
// file first so a crash never leaves a torn spill a later manager
// would try to parse.
func (m *Manager) writeSpill(key string, e cacheEntry) {
	se := spillEntry{Result: e.result}
	if e.err != nil {
		se.Err = e.err.Error()
	}
	data, err := json.Marshal(se)
	if err != nil {
		return
	}
	tmp := filepath.Join(m.cacheDir, key+".tmp")
	if os.WriteFile(tmp, data, 0o644) != nil {
		return
	}
	os.Rename(tmp, filepath.Join(m.cacheDir, key+".json"))
}

// readSpill loads a spilled entry; unreadable or unparsable files are
// treated as misses (the job just re-executes).
func (m *Manager) readSpill(key string) (cacheEntry, bool) {
	data, err := os.ReadFile(filepath.Join(m.cacheDir, key+".json"))
	if err != nil {
		return cacheEntry{}, false
	}
	var se spillEntry
	if json.Unmarshal(data, &se) != nil {
		return cacheEntry{}, false
	}
	e := cacheEntry{result: se.Result}
	if se.Err != "" {
		e.err = errors.New(se.Err)
	}
	return e, true
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists every job submitted to this manager, in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for i := 0; i < m.nextID; i++ {
		if j, ok := m.jobs[fmt.Sprintf("job-%d", i)]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Started reports how many job executions (first slices, not resumes
// or cache hits) the manager has begun — the observable the cache
// tests assert on.
func (m *Manager) Started() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.started
}

// finish records a terminal state, populates the cache, and emits the
// terminal event. Callers hold m.mu. cached marks results served from
// the cache rather than computed.
func (m *Manager) finish(j *Job, res *ssrank.Result, err error, cached bool) {
	j.result, j.err = res, err
	if res != nil {
		j.steps = res.Interactions
	}
	if !cached {
		e := cacheEntry{result: res, err: err}
		m.cachePut(j.Key, e)
		if m.cacheDir != "" {
			m.writeSpill(j.Key, e)
		}
	} else {
		j.emit(EventCached, nil)
	}
	if err != nil {
		j.state = Failed
		j.emit(EventFailed, func(e *Event) { e.Err = err.Error() })
		return
	}
	j.state = Done
	j.emit(EventDone, func(e *Event) { e.Result = res })
}

// worker drains the queue: claim the head job, run it for one slice,
// then either finish it, or — when other jobs are waiting — park its
// Simulation and requeue it so the queue drains round-robin instead of
// head-of-line blocking behind a long run.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = m.queue[1:]
		j.state = Running
		sim := j.sim
		j.sim = nil
		if sim == nil {
			m.started++
		}
		j.emit(EventStarted, nil)
		m.mu.Unlock()

		m.run(j, sim)
	}
}

// sliceFor rounds the manager's scheduling slice up to the engine's
// batch period for sharded configs. A RunUntilStable target cuts the
// sharded engine's batch, so only batch-aligned slice ends keep a
// sliced run on the barrier schedule Run uses (the stepping rule in
// the ssrank.Simulation doc).
func (m *Manager) sliceFor(cfg ssrank.Config) int64 {
	if cfg.Shards <= 1 {
		return m.slice
	}
	period := int64(shard.BatchPeriod(cfg.N))
	return (m.slice + period - 1) / period * period
}

// runDist offers j to the distributed fleet. A false return means the
// fleet declined and the caller should execute in-process; true means
// the job reached a terminal state. Progress events are throttled to
// the manager's slice cadence so a distributed run streams the same
// granularity an in-process run would, while j.steps tracks every
// barrier for Status readers.
func (m *Manager) runDist(j *Job) bool {
	slice := m.sliceFor(j.Config)
	var last int64
	res, ok, err := m.dist.Run(j.Config, func(steps int64) {
		m.mu.Lock()
		j.steps = steps
		if steps-last >= slice {
			last = steps
			j.emit(EventProgress, nil)
		}
		m.mu.Unlock()
	})
	if !ok {
		return false
	}
	if err != nil && !errors.Is(err, ssrank.ErrNotConverged) {
		// Defensive: infrastructure failures are not deterministic
		// outcomes and must not be cached — fall back in-process.
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("jobs: %s did not converge within %d interactions", j.Config.Protocol, j.Config.MaxInteractions)
		m.finish(j, &res, err, false) // partial outcome, as in-process
		return true
	}
	m.finish(j, &res, nil, false)
	return true
}

// run executes scheduling slices of j on its parked Simulation, or on
// a new one (after offering the job to the fleet) when sim is nil, and
// routes the outcome: done, failed, preempted, or — when the queue is
// empty and the manager open — immediately another slice.
func (m *Manager) run(j *Job, sim *ssrank.Simulation) {
	if sim == nil {
		if m.dist != nil && j.Config.Workers > 1 && m.runDist(j) {
			return
		}
		var err error
		if sim, err = ssrank.NewSimulation(j.Config); err != nil {
			m.mu.Lock()
			defer m.mu.Unlock()
			m.finish(j, nil, err, false)
			return
		}
	}
	slice := m.sliceFor(j.Config)
	budget := j.Config.MaxInteractions
	// The message network (the one engine a normalized Config gives 0
	// shards) bounds the rounds of each call by the interactions the
	// call has left. Capping those at the rounds the budget has left
	// caps the job's rounds at the budget, as in Run, so a network
	// that delivers nothing ends instead of spinning.
	network := j.Config.Shards == 0
	var rounds int64
	if network {
		rounds = sim.Snapshot().Rounds // a parked run's rounds so far
	}
	for {
		target := sim.Interactions() + min(slice, budget-rounds)
		if target > budget || target < 0 { // < 0: overflow near MaxInt64
			target = budget
		}
		stable := sim.RunUntilStable(target)
		if network {
			rounds = sim.Snapshot().Rounds
		}
		m.mu.Lock()
		j.steps = sim.Interactions()
		switch {
		case stable:
			res := sim.Result()
			m.finish(j, &res, nil, false)
			m.mu.Unlock()
			return
		case sim.Interactions() >= budget || rounds >= budget:
			res := sim.Result()
			err := fmt.Errorf("jobs: %s did not converge within %d interactions", j.Config.Protocol, budget)
			j.result = &res // partial outcome, for debugging
			m.finish(j, j.result, err, false)
			m.mu.Unlock()
			return
		case m.closed || len(m.queue) > 0:
			// Queue backed up (or shutting down): park, requeue.
			j.sim = sim
			j.state = Queued
			j.emit(EventPreempted, nil)
			m.queue = append(m.queue, j)
			m.cond.Signal()
			m.mu.Unlock()
			return
		default:
			j.emit(EventProgress, nil)
			m.mu.Unlock()
		}
	}
}
