// Package shard implements intra-run parallelism for the population
// engine: one simulation run partitioned across S shards, each owning a
// contiguous range of agents, its own slab of the state array, and its
// own rng.Jump-derived stream.
//
// The uniform pairwise scheduler admits an exchangeable-batch
// formulation: a batch of B sampled pairs may be applied in a
// deterministic canonical order without changing the per-slot law of
// the process (each slot remains an independent uniform ordered pair of
// distinct agents; only the relative application order of the rare
// agent-sharing pairs inside one batch is canonicalized — see
// DESIGN.md §3 for the argument and the O(B²/n) collision accounting).
// The runner exploits that freedom per batch:
//
//  1. The coordinator draws ONE multinomial sample over the shard-pair
//     classes — S intra classes (both endpoints in shard s) plus
//     S(S−1) *directional* cross classes (initiator in s, responder in
//     t, s ≠ t) — from an integer-exact alias table weighted by
//     ordered-pair counts (n_s(n_s−1) intra, n_s·n_t per direction).
//     Only the per-class *counts* are published: no concrete pair is
//     ever drawn or stored by the coordinator, so the serial work per
//     slot is one 64-bit draw and a counter increment, and the
//     per-batch cross-pair lists of the earlier design are gone
//     entirely. Sampling directions as classes also means orientation
//     never costs a draw downstream.
//  2. Intra phase: every shard applies its count's worth of pairs
//     concurrently, one worker per shard, drawing concrete endpoint
//     pairs from its own stream. Conditioned on landing in shard s, a
//     uniform ordered pair of distinct agents is a uniform ordered
//     pair of distinct agents of shard s, so the local draw is exact.
//     Shards touch disjoint slabs, so results cannot depend on worker
//     scheduling.
//  3. Barrier, then cross reconciliation: the two directional classes
//     of an unordered shard pair {s, t} execute as one unit, and the
//     units are played in tournament rounds — within a round no shard
//     appears in two units, so a round's units run concurrently. Each
//     unit draws its endpoint indices from its own rng.Jump-derived
//     stream in register-resident batches (rng.Uniform.FillInto):
//     conditioned on a directional class, a uniform ordered cross pair
//     is exactly two uniform slab indices.
//
// Every step of that schedule is a pure function of (seed, shard
// count): the class counts the master emits, what each shard and class
// stream yields, and the class/round grouping. Worker goroutines only
// ever execute units that touch disjoint memory, so for a fixed
// (seed, S) the trajectory is byte-identical at any worker count — the
// repo's determinism invariant extended from replication
// (internal/sim/replicate) down into a single run.
//
// The protocol's Transition must be safe for concurrent invocation on
// disjoint state pairs: it may read immutable protocol parameters
// freely but must synchronize any shared mutable instrumentation
// (stable.Protocol and aware.Protocol use atomic reset counters).
//
// Every batch runs through one executor, the phase API of units.go:
// in-process on a worker pool (Run, RunUntilExact), or unit by unit
// from outside (the distributed runtime). An untracked batch is the
// same units with recording off.
//
// Unlike sim.Runner, the trajectory additionally depends on where
// batch barriers fall: Run(k) flushes a partial batch at its end so
// the caller may inspect states, which makes the cadence of a
// sim.Poll loop part of the trajectory definition. Determinism guarantees are
// therefore stated for a fixed call sequence — which is how the
// experiment generators drive the engine. RunUntilExact always runs
// full batches, so its barrier placement (and hence its trajectory) is
// a pure function of (seed, S, budget) — no cadence enters the
// definition.
package shard

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/sim/slab"
)

// maxBatch bounds the pairs classified per barrier period: large
// enough to amortize barrier synchronization over tens of microseconds
// of transition work, small enough that the canonical-reorder window
// stays negligible against the Θ(n² log n) timescales under
// measurement.
const maxBatch = 16384

// minBatch keeps tiny populations from paying a barrier every handful
// of interactions.
const minBatch = 512

// autoMinN is the population size below which AutoShards stays serial.
// Re-derived for the alias-table coordinator (DESIGN.md §3.2): the
// serial overhead of the sharded engine at S = 4 is ~35% at n = 16384
// on the recording machine — already recovered by a second core — so
// the old 32768 floor (set when classification alone cost ~60%) halves.
const autoMinN = 16384

// autoSlab is the minimum per-shard slab AutoShards maintains, so
// barrier synchronization stays amortized over meaningful per-shard
// work. Re-derived alongside autoMinN: with counts-only publication
// the barrier period, not the slab, is the binding overhead, and
// 4096-agent slabs keep the measured per-batch coordinator share
// under 10% at the minimum population.
const autoSlab = 4096

// Auto is the shard-count sentinel meaning "derive the count from the
// population size and the core count" (see AutoShards). The engine
// layer resolves it (engine.ResolveShards); the facade re-exports it as
// ssrank.AutoShards.
const Auto = -1

// ParseShards parses a CLI -shards value: a non-negative shard count,
// or "auto" for the Auto sentinel. Shared by both CLIs so the flag's
// syntax and error wording cannot drift between them.
func ParseShards(s string) (int, error) {
	if strings.EqualFold(s, "auto") {
		return Auto, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("-shards must be a non-negative count or 'auto' (got %q)", s)
	}
	return v, nil
}

// AutoShards picks a shard count for a population of n agents on a
// machine with procs available cores (procs < 1 reads
// runtime.GOMAXPROCS(0)): serial below autoMinN agents or on a single
// core, otherwise one shard per core capped so every shard keeps a
// slab of at least autoSlab agents. engine.ResolveShards expands Auto
// with it, and selects the serial engine when it returns 1 (a
// one-shard sharded runner still pays classification overhead).
func AutoShards(n, procs int) int {
	if procs < 1 {
		procs = runtime.GOMAXPROCS(0)
	}
	if n < autoMinN || procs < 2 {
		return 1
	}
	s := procs
	if lim := n / autoSlab; s > lim {
		s = lim
	}
	if s < 2 {
		return 1
	}
	return s
}

// Runner executes a protocol over a population partitioned into
// shards. Construct with New; the zero value is not usable. The
// methods mirror sim.Runner and, like it, must not be called
// concurrently — parallelism lives *inside* a call (workers are
// spawned per Run and joined before it returns, so an idle Runner
// holds no goroutines).
type Runner[S any, P sim.TouchReporter[S]] struct {
	proto   P
	states  []S
	master  *rng.RNG        // class-label stream: block 0 of the seed
	alias   *rng.AliasTable // over the S intra + S(S−1)/2 cross classes
	shards  []shardMeta
	classes []classMeta
	workers int
	batch   int
	steps   int64

	// counts is the published per-batch multinomial over the S + 2C
	// directional classes (C = S(S−1)/2 unordered cross units): entry
	// s < S is shard s's intra count, entry S+c is unit c's
	// forward count (initiator in the lower shard), entry S+C+c its
	// reverse count.
	counts []int32
	rounds [][]int // tournament schedule: cross-unit ids playable concurrently

	// phases is the batch as the executor runs it: the intra phase (unit
	// s = shard s's intra pairs), then one phase per tournament round
	// (unit S+c = cross unit c). Units of one phase touch disjoint
	// memory; phase order is the canonical application order.
	phases  [][]int
	scratch crossScratch // endpoint-fill buffers for units run inline
	tasks   chan int     // the worker pool's unit queue while Run/RunUntilExact hold one
	wg      sync.WaitGroup

	// Per-unit recording, indexed by unit id and armed per batch by
	// BeginBatch. While tracking is set, every unit records its touched
	// interactions with their canonical batch positions (off[u] plus the
	// slot) so the barrier fold can replay the batch into the stop
	// tracker (exact.go). While collect is set, every unit also logs the
	// endpoint indices it draws — a distributed worker's per-phase delta
	// frames; touch records alone cannot serve, since a transition may
	// mutate state without moving any condition-relevant projection.
	// Each unit writes only its own slices, so recording is race-free
	// without synchronization.
	tracking, collect bool
	off               []int32
	recs              [][]TouchRec[S]
	dirty             [][]int32
	folder            *Folder[S] // shadow replay state for in-process exact runs
}

// shardMeta is one shard: its index range [lo, hi) in the population
// array and its private pair stream over local indices [0, hi-lo).
type shardMeta struct {
	lo, hi int
	pb     *rng.PairBatch
}

// classMeta is one cross unit — the unordered shard pair {s, t},
// s < t, covering both directional classes: the two slab origins,
// precomputed index samplers over each slab, and the unit's private
// endpoint stream. A cross pair is drawn entirely locally: one index
// per slab, orientation already decided by the class multinomial.
type classMeta struct {
	s, t     int
	los, lot int32
	us, ut   rng.Uniform
	g        *rng.RNG
}

// crossChunk is the endpoint-fill granularity of a cross unit: indices
// are drawn crossChunk pairs at a time with the generator state in
// registers (rng.Uniform.FillInto), mirroring the intra path's
// PairBatch prefetch.
const crossChunk = 512

// crossScratch is one worker's endpoint-fill buffers. Workers own
// their scratch (units run inline use the Runner's), so units may
// share buffers without synchronization.
type crossScratch struct {
	as, bs [crossChunk]int32
}

// assignOffsets gives every unit its canonical offset within the
// current batch before any work is dispatched: intra shards first in
// shard order, then cross classes in round order — exactly the
// canonical application order of DESIGN.md §3. A recorded touch at
// index i of a unit then carries the globally increasing position
// offset+i, letting the barrier fold replay the batch's touches as one
// totally ordered interaction sequence.
func (r *Runner[S, P]) assignOffsets() {
	nshards, nclasses := len(r.shards), len(r.classes)
	off := int32(0)
	for _, phase := range r.phases {
		for _, u := range phase {
			r.off[u] = off
			off += r.counts[u]
			if u >= nshards {
				off += r.counts[u+nclasses] // the unit's reverse class
			}
		}
	}
}

// classIndex maps the unordered shard pair (s, t), s < t, to its
// compact class id: pairs enumerate in (s asc, t asc) order, which is
// also the stream-block and record-slice order.
func classIndex(s, t, S int) int {
	return s*(2*S-s-1)/2 + (t - s - 1)
}

// ClassBytes bounds the memory one cross class adds to a Runner: its
// metadata, generator, counts, and weight and alias-table entries
// (218–248 B measured at S = 64 … 1024). New builds S(S−1)/2 of them,
// so a run's footprint grows with the square of its shard count, and
// admission control charges them beside the agent slab.
const ClassBytes = 256

// New returns a sharded Runner over the given initial configuration
// with the requested shard count and worker count. The states slice is
// owned by the Runner afterwards (and may be relocated into a
// cache-line-aligned slab — read it back via States). It panics if
// fewer than two agents are supplied. The shard count is clamped to
// [1, n/2] (every shard needs ≥ 2 agents for intra-shard pairs);
// workers < 1 means one per CPU, and more workers than shards are
// never useful, so the count is clamped to the shard count. The
// trajectory depends on (seed, clamped shard count) only — never on
// workers.
func New[S any, P sim.TouchReporter[S]](p P, states []S, seed uint64, shards, workers int) *Runner[S, P] {
	n := len(states)
	if n < 2 {
		panic(fmt.Sprintf("shard: population needs at least 2 agents, got %d", n))
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n/2 {
		shards = n / 2
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}

	nclasses := shards * (shards - 1) / 2
	r := &Runner[S, P]{
		proto:   p,
		states:  slab.Align(states),
		master:  rng.New(seed),
		workers: workers,
		counts:  make([]int32, shards+2*nclasses),
		classes: make([]classMeta, 0, nclasses),
	}

	// Stream blocks: the master owns block 0 of the seed (its first
	// 2¹²⁸ draws); shard s owns block s+1; cross class c owns block
	// S+1+c, classes enumerated in (s asc, t asc) order. Blocks are
	// reached by jumping a fresh generator and are guaranteed disjoint,
	// so no draw is ever shared between any two units. Shard s covers
	// [⌊s·n/S⌋, ⌊(s+1)·n/S⌋) — the floor partition inverted branch-free
	// by shardOf.
	base := rng.New(seed)
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		base.Jump()
		r.shards = append(r.shards, shardMeta{lo: lo, hi: hi, pb: rng.NewPairBatch(base.Clone(), hi-lo)})
	}
	for s := 0; s < shards; s++ {
		for t := s + 1; t < shards; t++ {
			base.Jump()
			ss, st := &r.shards[s], &r.shards[t]
			r.classes = append(r.classes, classMeta{
				s: s, t: t,
				los: int32(ss.lo), lot: int32(st.lo),
				us: rng.NewUniform(ss.hi - ss.lo), ut: rng.NewUniform(st.hi - st.lo),
				g: base.Clone(),
			})
		}
	}

	// The classification alias table, weighted by ordered-pair counts:
	// shard s owns n_s(n_s−1) intra pairs, each directional class of
	// unit {s, t} owns n_s·n_t, summing to n(n−1). Weights are ≤ n², so
	// the table's integer-exact construction holds to n ≈ 10⁹ (see
	// rng.NewAliasTable).
	weights := make([]uint64, shards+2*nclasses)
	for s := range r.shards {
		ns := uint64(r.shards[s].hi - r.shards[s].lo)
		weights[s] = ns * (ns - 1)
	}
	for c := range r.classes {
		cl := &r.classes[c]
		w := uint64(cl.us.N()) * uint64(cl.ut.N())
		weights[shards+c] = w
		weights[shards+nclasses+c] = w
	}
	r.alias = rng.NewAliasTable(weights)

	// Tournament rounds over the compact class ids, and the phases the
	// executor runs: every shard's intra unit, then the rounds' cross
	// units.
	intra := make([]int, shards)
	for s := range intra {
		intra[s] = s
	}
	r.phases = append(r.phases, intra)
	for _, round := range tournament(shards) {
		ids := make([]int, len(round))
		units := make([]int, len(round))
		for i, c := range round {
			ids[i] = classIndex(c/shards, c%shards, shards)
			units[i] = shards + ids[i]
		}
		r.rounds = append(r.rounds, ids)
		r.phases = append(r.phases, units)
	}

	r.batch = BatchPeriod(n)
	return r
}

// N returns the population size.
func (r *Runner[S, P]) N() int { return len(r.states) }

// Shards returns the effective (clamped) shard count.
func (r *Runner[S, P]) Shards() int { return len(r.shards) }

// Steps returns the number of interactions executed so far.
func (r *Runner[S, P]) Steps() int64 { return r.steps }

// States returns the live configuration; treat it as read-only.
func (r *Runner[S, P]) States() []S { return r.states }

// Snapshot returns a copy of the current configuration.
func (r *Runner[S, P]) Snapshot() []S {
	out := make([]S, len(r.states))
	copy(out, r.states)
	return out
}

// startWorkers spawns the per-call worker pool (none for a single
// worker) and returns the function that retires it. Phase barriers
// guarantee no unit is in flight at retirement, so closing the channel
// suffices; an idle Runner holds no goroutines.
func (r *Runner[S, P]) startWorkers() (stop func()) {
	if r.workers <= 1 {
		return func() {}
	}
	r.tasks = make(chan int, len(r.shards)) // a phase has at most S units
	for w := 0; w < r.workers; w++ {
		go r.worker(r.tasks)
	}
	return func() { close(r.tasks); r.tasks = nil }
}

// Run executes k interactions in barrier-synchronized batches. The
// final batch is truncated to k, so all k interactions have been
// applied when Run returns.
func (r *Runner[S, P]) Run(k int64) {
	if k <= 0 {
		return
	}
	stop := r.startWorkers()
	defer stop()
	for k > 0 {
		b := min(int64(r.batch), k)
		r.ExecBatch(int(b), false, nil)
		k -= b
	}
}

// worker executes units with its own endpoint-fill scratch. Every unit
// touches memory disjoint from every other unit of its phase, so
// execution order is free.
func (r *Runner[S, P]) worker(units <-chan int) {
	var scratch crossScratch
	for u := range units {
		r.execUnit(u, &scratch)
		r.wg.Done()
	}
}

// execUnit executes unit u of the current batch: shard u's intra pairs
// for u < S, else cross unit u−S.
func (r *Runner[S, P]) execUnit(u int, scratch *crossScratch) {
	if u < len(r.shards) {
		r.ExecIntra(u)
	} else {
		r.applyCross(u-len(r.shards), scratch)
	}
}

// ExecIntra executes shard s's intra pairs for the current batch,
// drawing them from the shard's own stream in slot order (a no-op at
// count zero). While the batch tracks, every touched interaction is
// recorded into the shard's private record slice; while it collects,
// every drawn endpoint is logged into the shard's dirty slice. No other
// unit writes either, so distinct shards may execute concurrently.
func (r *Runner[S, P]) ExecIntra(s int) {
	sh := &r.shards[s]
	slab := r.states[sh.lo:sh.hi]
	track, collect := r.tracking, r.collect
	var recs []TouchRec[S]
	var dirty []int32
	var pos int32
	if track {
		recs, pos = r.recs[s][:0], r.off[s]
	}
	if collect {
		dirty = r.dirty[s][:0]
	}
	lo := int32(sh.lo)
	for cnt := int(r.counts[s]); cnt > 0; {
		as, bs := sh.pb.Window()
		m := min(cnt, len(as))
		for i := 0; i < m; i++ {
			a, b := as[i], bs[i]
			if ut, vt := r.proto.TransitionT(&slab[a], &slab[b]); track && (ut || vt) {
				recs = append(recs, newTouchRec(pos+int32(i), ut, vt, lo+a, lo+b, slab[a], slab[b]))
			}
		}
		if collect {
			for i := 0; i < m; i++ {
				dirty = append(dirty, lo+as[i], lo+bs[i])
			}
		}
		pos += int32(m)
		sh.pb.Advance(m)
		cnt -= m
	}
	if track {
		r.recs[s] = recs
	}
	if collect {
		r.dirty[s] = dirty
	}
}

// applyCross applies unit c's cross pairs for this batch — forward
// direction (initiator in the lower shard) first, then reverse — in
// chunks of crossChunk: the s-side indices of a chunk are filled from
// the unit's stream with generator state in registers, then the t-side
// indices, then the chunk's transitions apply in slot order.
// Conditioned on a directional class, two uniform slab indices are
// exactly a uniform ordered cross pair, so no orientation draw is
// needed. Recording follows ExecIntra; forward pairs precede reverse
// pairs in the canonical order.
func (r *Runner[S, P]) applyCross(c int, scratch *crossScratch) {
	cl := &r.classes[c]
	u := len(r.shards) + c
	var recs []TouchRec[S]
	var dirty []int32
	var pos int32
	if r.tracking {
		recs, pos = r.recs[u][:0], r.off[u]
	}
	if r.collect {
		dirty = r.dirty[u][:0]
	}
	recs, dirty, pos = r.applyDir(cl, int(r.counts[u]), false, scratch, recs, dirty, pos)
	recs, dirty, _ = r.applyDir(cl, int(r.counts[u+len(r.classes)]), true, scratch, recs, dirty, pos)
	if r.tracking {
		r.recs[u] = recs
	}
	if r.collect {
		r.dirty[u] = dirty
	}
}

// applyDir applies cnt pairs of one directional class of unit cl —
// initiator in shard s when reverse is false, in shard t when true —
// appending touch records from canonical position pos and endpoint
// indices as the batch's recording modes ask.
func (r *Runner[S, P]) applyDir(cl *classMeta, cnt int, reverse bool, scratch *crossScratch, recs []TouchRec[S], dirty []int32, pos int32) ([]TouchRec[S], []int32, int32) {
	track, collect := r.tracking, r.collect
	// Initiator and responder sides: slab origin and index buffer.
	iorg, rorg, ias, ras := cl.los, cl.lot, scratch.as[:], scratch.bs[:]
	if reverse {
		iorg, rorg, ias, ras = rorg, iorg, ras, ias
	}
	for cnt > 0 {
		m := min(cnt, crossChunk)
		cl.us.FillInto(cl.g, scratch.as[:m])
		cl.ut.FillInto(cl.g, scratch.bs[:m])
		for i := 0; i < m; i++ {
			a, b := iorg+ias[i], rorg+ras[i]
			if ut, vt := r.proto.TransitionT(&r.states[a], &r.states[b]); track && (ut || vt) {
				recs = append(recs, newTouchRec(pos+int32(i), ut, vt, a, b, r.states[a], r.states[b]))
			}
		}
		if collect {
			for i := 0; i < m; i++ {
				dirty = append(dirty, cl.los+scratch.as[i], cl.lot+scratch.bs[i])
			}
		}
		pos += int32(m)
		cnt -= m
	}
	return recs, dirty, pos
}

// shardOf inverts the floor partition: agent i of n belongs to shard
// ⌊((i+1)·S − 1)/n⌋. No longer on any hot path (classification draws
// classes, not agents), it remains the partition's executable
// specification and the anchor of the partition tests.
func (r *Runner[S, P]) shardOf(i int) int {
	return ((i+1)*len(r.shards) - 1) / len(r.states)
}

// tournament returns a round-robin schedule over the unordered shard
// pairs of S shards (sparse id s*S+t, s < t — New converts to compact
// class ids): every class appears in exactly one round, and within a
// round no shard appears twice, so a round's classes may execute
// concurrently. The circle method yields S−1 rounds for even S and S
// rounds for odd S (one shard sits out per round).
func tournament(S int) [][]int {
	if S < 2 {
		return nil
	}
	m := S
	if m%2 == 1 {
		m++ // phantom "bye" participant
	}
	rounds := make([][]int, 0, m-1)
	for r := 0; r < m-1; r++ {
		var round []int
		for i := 0; i < m/2; i++ {
			a := (r + i) % (m - 1)
			b := m - 1 // the fixed participant
			if i > 0 {
				b = (r - i + m - 1) % (m - 1)
			}
			if a >= S || b >= S {
				continue // bye
			}
			if a > b {
				a, b = b, a
			}
			round = append(round, a*S+b)
		}
		if len(round) > 0 {
			rounds = append(rounds, round)
		}
	}
	return rounds
}
