package sim

// TouchReporter is the optional protocol capability behind cheap exact
// stopping: TransitionT applies one interaction with semantics
// identical to Transition and additionally reports which of the two
// agents' *condition-relevant projection* changed — the quantity the
// protocol's incremental stop tracker watches (the rank for the
// ranking protocols, the owned interval for the relaxed-range
// baseline, the leader bit for loose leader election).
//
// The report must be sound: an agent whose projection changed must be
// reported as touched. Implementations in this repository are exact
// (touched ⇔ projection changed) because exactness is what makes
// RunUntilCondT cheap — near convergence almost no interaction moves
// the projection, so almost no interaction pays a tracker call. The
// projection each protocol reports on is documented at its TransitionT,
// and a property test checks the report against a recomputation of the
// projection on every step of random and adversarial schedules.
//
// The interface is structural on purpose: protocol packages implement
// TransitionT without importing sim, preserving the layering rule that
// protocols depend only on rng.
type TouchReporter[S any] interface {
	Protocol[S]
	TransitionT(u, v *S) (uTouched, vTouched bool)
}

// touchRec is one touched interaction of the current collision-free
// sub-batch: its window-relative slot and which agents to fold.
type touchRec struct {
	slot int32
	mask uint8 // 1 = initiator touched, 2 = responder touched
}

// CondLoop is RunUntilCondT held across calls, for runs advanced in
// slices: the collision scratch is allocated once, and the condition
// is initialized on the first Run and after Resync only. A Run that
// ends without a hit has folded every touched interaction, so the
// tracker already describes the states; a hit leaves the rest of its
// sub-batch unfolded, so the loop resyncs itself after one.
type CondLoop[S any, P TouchReporter[S]] struct {
	r    *Runner[S, P]
	cond Condition[S]
	// synced is set while cond describes r's states.
	synced bool
	// marks is the collision scratch: marks[a] == epoch while agent a
	// has a recorded-but-unfolded touch in the current sub-batch.
	marks   []uint32
	epoch   uint32
	pending []touchRec
}

// CondLoopBytes is the collision scratch a CondLoop over n agents
// allocates beside its condition: one uint32 mark per agent.
func CondLoopBytes(n int) int64 { return 4 * int64(n) }

// NewCondLoop returns the exact stop loop of cond over r.
func NewCondLoop[S any, P TouchReporter[S]](r *Runner[S, P], cond Condition[S]) *CondLoop[S, P] {
	return &CondLoop[S, P]{r: r, cond: cond}
}

// Resync records that r's states changed outside the loop (Run, Step,
// SetState, a fault injection); the next Run rescans them.
func (e *CondLoop[S, P]) Resync() { e.synced = false }

// Run is RunUntilCondT(r, cond, maxSteps) on the held loop.
func (e *CondLoop[S, P]) Run(maxSteps int64) (int64, error) {
	r := e.r
	if !e.synced {
		e.cond.Init(r.states)
		e.synced = true
	}
	if e.cond.Done() {
		return r.steps, nil
	}
	if k := maxSteps - r.steps; k > 0 {
		if e.marks == nil {
			e.marks = make([]uint32, len(r.states))
		}
		if hit := e.run(k); hit >= 0 {
			e.synced = false
			return hit, nil
		}
	}
	return r.steps, ErrBudgetExhausted
}

// fold replays the recorded touched slots of the current sub-batch in
// application order. It returns the window-relative slot of the first
// interaction after which the condition held, or -1.
func (e *CondLoop[S, P]) fold(as, bs []int32) int32 {
	states := e.r.states
	for _, t := range e.pending {
		if t.mask&1 != 0 {
			e.cond.Update(int(as[t.slot]), states)
		}
		if t.mask&2 != 0 {
			e.cond.Update(int(bs[t.slot]), states)
		}
		if e.cond.Done() {
			return t.slot
		}
	}
	return -1
}

// run executes up to k further interactions, stopping early at the
// exact hitting time of the condition. It returns the exact hitting
// step, or -1 if the condition did not hold within the k interactions.
//
// The engine applies each PairBatch window as a sequence of
// collision-free sub-batches. A pre-scan is unnecessary: the split
// point is discovered on the fly, and only collisions on *touched*
// agents force a boundary — an untouched interaction cannot move the
// tracked projection, so deferring its (empty) tracker work is always
// safe. Within a sub-batch, transitions run in a tight loop while
// touched slots are recorded; at the sub-batch boundary the recorded
// slots are folded into the tracker in application order with a Done
// check after each. Conflict-freedom makes the fold an exact replay:
// no later interaction of the sub-batch has moved a recorded agent's
// projection, so the tracker sees exactly the per-interaction
// trajectory and the first satisfying interaction is identified
// exactly.
func (e *CondLoop[S, P]) run(k int64) int64 {
	r := e.r
	states := r.states
	end := r.steps + k
	e.epoch++ // a fresh epoch: no earlier call's marks carry over
	for r.steps < end {
		as, bs := r.pairs.Window()
		if remaining := end - r.steps; int64(len(as)) > remaining {
			as, bs = as[:remaining], bs[:remaining]
		}
		r.fetchWindow(as, bs)
		e.pending = e.pending[:0]
		np := 0
		for i, a := range as {
			b := bs[i]
			if np != 0 && (e.marks[a] == e.epoch || e.marks[b] == e.epoch) {
				// Collision with a touched agent: close the sub-batch
				// before interaction i sees (or perturbs) a recorded
				// projection.
				if hit := e.fold(as, bs); hit >= 0 {
					exact := r.steps + int64(hit) + 1
					r.pairs.Advance(i)
					r.steps += int64(i)
					return exact
				}
				e.epoch++
				e.pending = e.pending[:0]
				np = 0
			}
			ut, vt := r.proto.TransitionT(&states[a], &states[b])
			if ut || vt {
				var m uint8
				if ut {
					e.marks[a] = e.epoch
					m = 1
				}
				if vt {
					e.marks[b] = e.epoch
					m |= 2
				}
				e.pending = append(e.pending, touchRec{slot: int32(i), mask: m})
				np++
			}
		}
		hit := e.fold(as, bs)
		exact := r.steps + int64(hit) + 1
		e.epoch++
		r.pairs.Advance(len(as))
		r.steps += int64(len(as))
		if hit >= 0 {
			return exact
		}
	}
	return -1
}

// RunUntilCondT executes interactions until the incrementally
// maintained condition reports Done, or maxSteps interactions have been
// executed (ErrBudgetExhausted) — the serial engine's one exact stop
// loop. The protocol's TransitionT reports which agents changed
// condition-relevant state, and only those interactions pay tracker
// calls — unchanged interactions, the overwhelming majority near
// convergence, run at plain Run-loop speed (see CondLoop.run for the
// collision-free sub-batch machinery). The result is the hitting time
// a per-interaction loop (Step, Update both agents, check Done) would
// report.
//
// The returned step count is the exact hitting time. Because
// transitions of the hit's sub-batch may already have been applied
// when the fold detects Done, Steps() (and the pair stream) can sit up
// to one sub-batch past the returned value; for the silent stop
// conditions this engine targets (a valid ranking is a silent
// configuration) those trailing interactions are no-ops, so the final
// configuration is the one at the hitting time.
func RunUntilCondT[S any, P TouchReporter[S]](r *Runner[S, P], cond Condition[S], maxSteps int64) (int64, error) {
	return NewCondLoop(r, cond).Run(maxSteps)
}
