package shard

import (
	"fmt"

	"ssrank/internal/rng"
)

// This file is the Runner's phase API — the one batch executor. A
// batch is ClassifyBatch (the master's class-count draw), BeginBatch
// (install counts, arm recording), the units of each phase
// (ExecIntra per shard, then ExecCross per tournament round, in round
// order), and FinishBatch. ExecBatch drives it in-process for Run and
// RunUntilExact; the distributed runtime (internal/dist) splits it
// across processes — the coordinator classifies the batch and folds
// the barrier, while each worker, holding a full Runner as a
// population mirror, executes only the units it owns and reports its
// touch records, modified agents and stream positions.

// ClassifyBatch draws one batch's class-count multinomial from the
// master stream — the coordinator side of a distributed batch, exactly
// the draw an in-process batch performs. The returned slice is the
// Runner's internal counts buffer, valid until the next
// classification; its layout is the counts field layout
// ([S intra][C forward][C reverse]).
func (r *Runner[S, P]) ClassifyBatch(b int) []int32 {
	for i := range r.counts {
		r.counts[i] = 0
	}
	r.alias.CountsInto(r.master, b, r.counts)
	return r.counts
}

// BeginBatch installs externally published class counts (the layout
// ClassifyBatch returns) and arms per-unit recording: touch records
// when track is set, modified-agent collection when collect is set.
// Canonical batch offsets are assigned exactly as an in-process batch
// would assign them, and every unit's record and dirty slice is
// cleared so stale units cannot leak into this batch's barrier. The
// caller then executes its units via ExecIntra/ExecCross and retires
// the batch with FinishBatch.
func (r *Runner[S, P]) BeginBatch(counts []int32, track, collect bool) error {
	if len(counts) != len(r.counts) {
		return fmt.Errorf("shard: batch counts have %d classes, runner has %d", len(counts), len(r.counts))
	}
	copy(r.counts, counts)
	r.begin(track, collect)
	return nil
}

// begin arms the current batch's recording modes over the installed
// counts; the per-unit slices are allocated on first use.
func (r *Runner[S, P]) begin(track, collect bool) {
	units := len(r.shards) + len(r.classes)
	if track {
		if r.recs == nil {
			r.off = make([]int32, units)
			r.recs = make([][]TouchRec[S], units)
		}
		for u := range r.recs {
			r.recs[u] = r.recs[u][:0]
		}
		r.assignOffsets()
	}
	if collect {
		if r.dirty == nil {
			r.dirty = make([][]int32, units)
		}
		for u := range r.dirty {
			r.dirty[u] = r.dirty[u][:0]
		}
	}
	r.tracking, r.collect = track, collect
}

// ExecCross executes cross unit c's pairs (both directions, forward
// before reverse) for the current batch on the caller's goroutine.
// Inline units share one endpoint-fill buffer, so two ExecCross calls
// must not run concurrently.
func (r *Runner[S, P]) ExecCross(c int) { r.applyCross(c, &r.scratch) }

// FinishBatch retires the current batch: commits its step count and
// disarms recording.
func (r *Runner[S, P]) FinishBatch(b int) {
	r.steps += int64(b)
	r.tracking = false
	r.collect = false
}

// IntraRecs returns shard s's touch records for the current batch,
// valid until the next BeginBatch (canonical positions already
// assigned).
func (r *Runner[S, P]) IntraRecs(s int) []TouchRec[S] { return r.recs[s] }

// CrossRecs returns cross unit c's touch records for the current
// batch, valid until the next BeginBatch.
func (r *Runner[S, P]) CrossRecs(c int) []TouchRec[S] { return r.recs[len(r.shards)+c] }

// DirtyIntra returns the population indices shard s's intra pairs
// touched this batch, in application order, possibly with duplicates.
// Valid until the next BeginBatch; requires collect mode.
func (r *Runner[S, P]) DirtyIntra(s int) []int32 { return r.dirty[s] }

// DirtyCross returns the population indices cross unit c's pairs
// touched this batch (see DirtyIntra).
func (r *Runner[S, P]) DirtyCross(c int) []int32 { return r.dirty[len(r.shards)+c] }

// NumCrossUnits returns the number of cross units C = S(S−1)/2.
func (r *Runner[S, P]) NumCrossUnits() int { return len(r.classes) }

// CrossUnitShards returns the unordered shard pair {s, t}, s < t, of
// cross unit c.
func (r *Runner[S, P]) CrossUnitShards(c int) (s, t int) {
	cl := &r.classes[c]
	return cl.s, cl.t
}

// RoundSchedule returns the tournament schedule: rounds of compact
// cross-unit ids, every unit in exactly one round, no shard twice
// within a round. A pure function of the shard count — identical on
// every process of a distributed run. Treat as read-only.
func (r *Runner[S, P]) RoundSchedule() [][]int { return r.rounds }

// ShardStream returns shard s's private pair-stream position —
// a distributed worker reports its owned streams at every barrier so
// the coordinator's committed engine state stays current.
func (r *Runner[S, P]) ShardStream(s int) rng.PairBatchState { return r.shards[s].pb.State() }

// ClassStream returns cross unit c's private endpoint-stream position.
func (r *Runner[S, P]) ClassStream(c int) [4]uint64 { return r.classes[c].g.State() }
