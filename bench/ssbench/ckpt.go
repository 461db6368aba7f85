package main

import (
	"bytes"
	"time"

	"ssrank"
	"ssrank/internal/rng"
	"ssrank/internal/sim/shard"
	"ssrank/internal/stats"
)

// ckptProbe measures the sscp checkpoint codec at the two sizes the
// system ships checkpoints at: a service job preempted mid-run (n = 512,
// Simulation.Checkpoint on every slice boundary of a backed-up queue)
// and the population the distributed runtime assigns (n = 2²², shipped
// to workers as checkpoint sub-blobs). Every traced run records it.
func ckptProbe(e *env) {
	r := rng.New(e.seed ^ 0xc4ec4)
	small := ssrank.Config{N: e.size.ckptSmallN, Init: ssrank.InitWorstCase, Seed: r.Uint64()}
	enc, dec, _ := ckptRoundTrip(e, small, int64(small.N)*int64(small.N), 21)
	e.layer.set("ckpt.encode_ms.n512", stats.Median(millis(enc)), "ms", len(enc))
	e.layer.set("ckpt.decode_ms.n512", stats.Median(millis(dec)), "ms", len(dec))

	large := ssrank.Config{N: e.size.ckptLargeN, Shards: ssrank.AutoShards, Seed: r.Uint64()}
	// Cut on a batch barrier, where sharded checkpoints are taken.
	enc, dec, blob := ckptRoundTrip(e, large, 4*int64(shard.BatchPeriod(large.N)), 3)
	mb := float64(len(blob)) / 1e6
	e.layer.set("ckpt.encode_mb_per_s.n4m", mb/stats.Median(millis(enc))*1e3, "MB/s", len(enc))
	e.layer.set("ckpt.decode_mb_per_s.n4m", mb/stats.Median(millis(dec))*1e3, "MB/s", len(dec))
	e.layer.set("ckpt.bytes_per_agent", float64(len(blob))/float64(large.N), "B", 1)
}

// ckptRoundTrip steps a simulation of cfg, then times reps checkpoints
// and reps resumes of the checkpoint, checking that a resumed simulation
// checkpoints to the same bytes.
func ckptRoundTrip(e *env, cfg ssrank.Config, steps int64, reps int) (enc, dec []time.Duration, blob []byte) {
	run, err := ssrank.NewSimulation(cfg)
	if !e.chk.check(err == nil, "checkpoint probe n=%d: %v", cfg.N, err) {
		return nil, nil, nil
	}
	run.Step(steps)
	for range reps {
		freshHeap()
		t := time.Now()
		b, err := run.Checkpoint()
		enc = append(enc, time.Since(t))
		e.tr.add(0, "ckpt.encode", t, t.Add(enc[len(enc)-1]), int64(len(b)), whole)
		if blob == nil {
			e.chk.check(err == nil, "checkpoint n=%d: %v", cfg.N, err)
			blob = b
		}
	}
	for i := range reps {
		freshHeap()
		t := time.Now()
		resumed, err := ssrank.ResumeSimulation(cfg, blob)
		dec = append(dec, time.Since(t))
		e.tr.add(0, "ckpt.decode", t, t.Add(dec[i]), int64(len(blob)), whole)
		if i == 0 && e.chk.check(err == nil, "resume n=%d: %v", cfg.N, err) {
			again, err := resumed.Checkpoint()
			e.chk.check(err == nil && bytes.Equal(again, blob), "resume then checkpoint n=%d changed the checkpoint bytes (err %v)", cfg.N, err)
		}
	}
	return enc, dec, blob
}
