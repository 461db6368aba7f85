package shard

import (
	"reflect"
	"testing"

	"ssrank/internal/rng"
	"ssrank/internal/stable"
)

// TestPhaseAPIMatchesExecBatch drives batches from outside the Runner
// the way the distributed workers and the benchmark's exchange do —
// ClassifyBatch, BeginBatch, every unit on the caller's goroutine in
// round order, FinishBatch — and checks every batch against the
// in-process executor running on its worker pool (and, untracked,
// against Run): the same states, the same EngineState and the same
// touch records in canonical unit order, with tracking on and off.
func TestPhaseAPIMatchesExecBatch(t *testing.T) {
	const n, seed, batches = 300, 0xfa5e, 40
	type recs = []TouchRec[stable.State]
	for _, S := range []int{2, 3, 4} {
		for _, track := range []bool{false, true} {
			mk := func(workers int) *Runner[stable.State, *stable.Protocol] {
				p := stable.New(n, stable.DefaultParams())
				return New[stable.State](p, p.RandomConfig(rng.New(seed)), seed, S, workers)
			}
			ref, ext, run := mk(4), mk(1), mk(4)
			stop := ref.startWorkers()
			var total int
			for i := 0; i < batches; i++ {
				b := ref.batch - i%3*7 // full and truncated batches
				var want, got recs
				ref.ExecBatch(b, track, func(r recs) { want = append(want, r...) })

				// Collection rides along on every other batch, as on a
				// distributed worker; it must not perturb anything.
				if err := ext.BeginBatch(ext.ClassifyBatch(b), track, i%2 == 0); err != nil {
					t.Fatal(err)
				}
				for s := range ext.Shards() {
					ext.ExecIntra(s)
				}
				for _, round := range ext.RoundSchedule() {
					for _, c := range round {
						ext.ExecCross(c)
					}
				}
				ext.FinishBatch(b)
				if track {
					for s := range ext.Shards() {
						got = append(got, ext.IntraRecs(s)...)
					}
					for _, round := range ext.RoundSchedule() {
						for _, c := range round {
							got = append(got, ext.CrossRecs(c)...)
						}
					}
				}

				if !reflect.DeepEqual(ext.States(), ref.States()) {
					t.Fatalf("S=%d track=%t batch %d: states differ", S, track, i)
				}
				if !reflect.DeepEqual(ext.EngineState(), ref.EngineState()) {
					t.Fatalf("S=%d track=%t batch %d: engine states differ", S, track, i)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("S=%d track=%t batch %d: %d touch records, in-process emitted %d (or contents differ)", S, track, i, len(got), len(want))
				}
				total += len(want)
				if !track {
					run.Run(int64(b))
					if !reflect.DeepEqual(run.States(), ref.States()) || !reflect.DeepEqual(run.EngineState(), ref.EngineState()) {
						t.Fatalf("S=%d batch %d: Run diverged from ExecBatch", S, i)
					}
				}
			}
			stop()
			if track && total == 0 {
				t.Fatalf("S=%d: no touch records in %d batches; the record comparison is vacuous", S, batches)
			}
		}
	}
}
