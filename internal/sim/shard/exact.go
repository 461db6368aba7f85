package shard

import "ssrank/internal/sim"

// This file implements exact stopping for the sharded engine: the
// touch-reporting machinery of the serial engine (sim.RunUntilCondT)
// extended across batch barriers.
//
// While tracking is enabled, every unit of a batch — each shard's
// intra pairs, each cross class — applies its interactions through the
// protocol's TransitionT and records the touched ones (the ones that
// moved a condition-relevant projection) into a private per-unit
// slice, together with the interaction's canonical batch position and
// both agents' post-interaction states. At the batch barrier the
// records are folded, merged in canonical order, into the descriptor's
// incremental stop tracker, identifying the exact first interaction of
// the batch after which the condition held.
//
// The fold replays against the live states, one record at a time: it
// saves the live states of the record's two agents, writes the
// recorded post-interaction states into those two slots, runs the
// tracker's Updates and restores both slots. By barrier time the live
// array holds end-of-batch states, and an agent touched twice in one
// batch would make a plain mid-batch tracker read see the future; the
// swap-in removes that for the one agent each Update reads. It is exact
// for two reasons. First, a tracker's Update reads only the updated
// agent's state (the Condition contract; sim.RankCond,
// interval.DisjointCond and sudo.LeaderCond all do), and that slot
// holds the agent's state just after the recorded interaction, so
// whatever the other slots hold is never read. Second, nothing else
// reads or writes the slab while the fold runs: in process the records
// are emitted after the last phase barrier, and in the distributed
// runtime after the wire barrier and the commit of the batch's deltas.
// Restoring the two slots after each record leaves the live array as
// the batch left it, so no second copy of the population is needed.
//
// Soundness of the canonical order itself is DESIGN.md §3: a batch of
// uniformly sampled pairs may be applied in the canonical order (intra
// shards in shard order, then cross classes in tournament-round order)
// without changing the law of the process, and the sharded trajectory
// is *defined* as that canonical sequence. The hitting time reported
// here is the exact hitting time of that trajectory — batch-granular
// detection, within-batch exact replay — and, like every sharded
// quantity, a pure function of (seed, shard count) at any worker
// count: records are written by the unit that owns them, offsets are
// assigned before dispatch, and the fold runs after the barrier.
//
// The fold path is shared with the distributed runtime: Folder replays
// record slices against the bound live states, and RunExactBatches
// (exchange.go) drives any BarrierExchange — the in-process Runner or
// a wire-backed coordinator — through the identical batch/fold loop.

// TouchRec is one touched interaction of a batch: its canonical batch
// position, which agents to fold (mask bit 1 = initiator, bit 2 =
// responder), and both agents' states just after the interaction — the
// values the fold swaps into the live slots. Records cross process
// boundaries in the distributed runtime, so the fields are exported;
// the canonical wire encoding lives in internal/dist.
type TouchRec[S any] struct {
	Pos    int32
	Mask   uint8
	A, B   int32
	SA, SB S
}

// newTouchRec packs one touched interaction.
func newTouchRec[S any](pos int32, ut, vt bool, a, b int32, sa, sb S) TouchRec[S] {
	var m uint8
	if ut {
		m = 1
	}
	if vt {
		m |= 2
	}
	return TouchRec[S]{Pos: pos, Mask: m, A: a, B: b, SA: sa, SB: sb}
}

// Folder replays touched-interaction records against a run's live
// states, feeding an incremental condition tracker. One Folder serves
// one exact-stopping run: Reset binds the run's live states, then Fold
// consumes each batch's record slices in canonical order, after the
// batch's barrier and before anything else touches the states.
type Folder[S any] struct {
	states []S
}

// NewFolder returns a Folder for a population of n agents. It holds no
// per-agent memory: Reset binds the run's own states.
func NewFolder[S any](n int) *Folder[S] {
	return &Folder[S]{}
}

// Reset binds the run's live states (not a copy: Fold writes into them
// and restores them); call it once before the first batch of an
// exact-stopping run.
func (f *Folder[S]) Reset(states []S) {
	f.states = states
}

// Fold replays one record slice into the condition tracker via the
// bound states, which it leaves as it found them. It returns the batch
// position of the first interaction after which the condition held, or
// -1. Callers fold a batch's slices in
// canonical unit order and stop consuming tracker updates after the
// first hit (later slices of the batch still carry valid positions,
// but the hitting time is the first).
func (f *Folder[S]) Fold(cond sim.Condition[S], recs []TouchRec[S]) int64 {
	states := f.states
	for i := range recs {
		t := &recs[i]
		// Swap both agents' at-touch states in for the tracker's reads,
		// then put the live states back.
		la, lb := states[t.A], states[t.B]
		states[t.A], states[t.B] = t.SA, t.SB
		if t.Mask&1 != 0 {
			cond.Update(int(t.A), states)
		}
		if t.Mask&2 != 0 {
			cond.Update(int(t.B), states)
		}
		states[t.A], states[t.B] = la, lb
		if cond.Done() {
			return int64(t.Pos)
		}
	}
	return -1
}

// ExecBatch executes one batch of b interactions through the phase
// API — the in-process executor behind Run and RunUntilExact, and the
// Runner's BarrierExchange implementation. Each phase's units run on
// the worker pool while Run or RunUntilExact holds one (joined at the
// phase barrier), else inline on the caller's goroutine; untracked
// batches run the same units with recording off. When track is set,
// each unit's record slice is emitted in canonical unit order — intra
// shards in shard order, then cross units in tournament-round order.
func (r *Runner[S, P]) ExecBatch(b int, track bool, emit func(recs []TouchRec[S])) error {
	r.ClassifyBatch(b)
	r.begin(track, false)
	for _, phase := range r.phases {
		if r.tasks == nil {
			for _, u := range phase {
				r.execUnit(u, &r.scratch)
			}
			continue
		}
		r.wg.Add(len(phase))
		for _, u := range phase {
			r.tasks <- u
		}
		r.wg.Wait() // phase barrier
	}
	r.FinishBatch(b)
	if track {
		for _, phase := range r.phases {
			for _, u := range phase {
				emit(r.recs[u])
			}
		}
	}
	return nil
}

// RunUntilExact executes interactions until the incrementally
// maintained condition reports Done, or maxSteps interactions have
// been executed (sim.ErrBudgetExhausted) — the sharded counterpart of
// sim.RunUntilCondT. The condition is initialized from the current
// configuration and checked once before the first interaction.
//
// The returned step count is the exact hitting time of the sharded
// trajectory: batches run at the engine's native barrier period
// (independent of any poll cadence), and the barrier fold replays the
// batch's touched interactions in canonical application order to pin
// the first satisfying interaction within the batch. Transient
// conditions are handled exactly: a condition that holds mid-batch and
// breaks again before the barrier is still detected by the fold, which
// a polled validity scan would sail through.
//
// Because the hit's batch has been fully applied when the fold detects
// Done, Steps() (and the pair streams) can sit up to one batch past
// the returned value; for silent stop conditions the trailing
// interactions are no-ops, so the final configuration is the one at
// the hitting time. The result is byte-identical at any worker count.
func (r *Runner[S, P]) RunUntilExact(cond sim.Condition[S], maxSteps int64) (int64, error) {
	return NewExactLoop(r, cond).Run(maxSteps)
}

// ExactLoop is RunUntilExact held across calls, for runs advanced in
// slices: the condition is initialized on the first Run and after
// Resync only. A Run that ends without a hit has folded every batch it
// executed, so the tracker already describes the states; a hit leaves
// the rest of its batch unfolded, so the loop resyncs itself after one.
type ExactLoop[S any, P sim.TouchReporter[S]] struct {
	r    *Runner[S, P]
	cond sim.Condition[S]
	f    Folder[S]
	// synced is set while cond describes r's states.
	synced bool
}

// NewExactLoop returns the exact stop loop of cond over r.
func NewExactLoop[S any, P sim.TouchReporter[S]](r *Runner[S, P], cond sim.Condition[S]) *ExactLoop[S, P] {
	return &ExactLoop[S, P]{r: r, cond: cond}
}

// Resync records that the runner's states changed outside the loop
// (Run, a fault injection); the next Run rescans them.
func (l *ExactLoop[S, P]) Resync() { l.synced = false }

// Run is r.RunUntilExact(cond, maxSteps) on the held loop.
func (l *ExactLoop[S, P]) Run(maxSteps int64) (int64, error) {
	r := l.r
	if !l.synced {
		l.cond.Init(r.states)
		l.synced = true
	}
	if l.cond.Done() {
		return r.steps, nil
	}
	l.f.Reset(r.states)
	stop := r.startWorkers()
	defer stop()
	_, hit, err := RunExactBatches[S](r, &l.f, l.cond, r.steps, maxSteps, r.batch)
	if err != nil {
		l.synced = false
		return r.steps, err
	}
	if hit < 0 {
		return r.steps, sim.ErrBudgetExhausted
	}
	l.synced = false
	return hit, nil
}
