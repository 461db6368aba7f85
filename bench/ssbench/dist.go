package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ssrank"
	"ssrank/internal/rng"
	"ssrank/internal/stats"
)

// distWorkers is the fleet size: one ssrank-worker process per shard.
const distWorkers = 2

// distFleet is sharded-large's batch semantics with every barrier on the
// wire: two shards, each owned by an ssrank-worker process connected
// over a unix socket. The population is 2²⁰, a quarter of
// sharded-large's: every process of a distributed run holds a full
// mirror of the population (three copies plus assignment buffers, about
// 2 GB at 2²²), while the batch period, and with it the traffic per
// batch, is the same at both sizes.
type distFleet struct {
	runOps
	workers []*helper
	conns   []net.Conn
	sums    [][32]byte      // digestResult of each op's Result
	refs    []time.Duration // in-process reference runs, one per op
	peakMB  float64
}

// start launches the worker processes and accepts their connections.
func (w *distFleet) start(e *env) error {
	sock := filepath.Join(e.runDir, fmt.Sprintf("w%d.sock", os.Getpid()))
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	defer ln.Close()
	for range distWorkers {
		h, err := startHelper(filepath.Join(e.bin, "ssrank-worker"), "-coordinator", sock, "-retry", "0")
		if err != nil {
			return err
		}
		w.workers = append(w.workers, h)
	}
	ln.(*net.UnixListener).SetDeadline(time.Now().Add(30 * time.Second))
	for len(w.conns) < distWorkers {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("waiting for workers to connect: %w", err)
		}
		w.conns = append(w.conns, c)
	}
	return nil
}

// stop closes the connections, which ends the workers (they run with
// -retry 0), and waits for them.
func (w *distFleet) stop() {
	for _, c := range w.conns {
		c.Close()
	}
	for _, h := range w.workers {
		h.stop()
	}
	w.conns, w.workers = nil, nil
}

func (w *distFleet) pids() []int {
	var pids []int
	for _, h := range w.workers {
		pids = append(pids, h.pid())
	}
	return pids
}

func (w *distFleet) measure(e *env, d time.Duration, probe bool) {
	r := rng.New(e.seed ^ 0xd157)
	budget := e.size.distBudget
	if probe {
		budget = e.size.distProbe
	}
	start := time.Now()
	for len(w.runOps) == 0 || (!probe && time.Since(start) < d) {
		cfg := ssrank.Config{N: e.size.distN, Shards: distWorkers, MaxInteractions: budget, Seed: r.Uint64()}
		freshHeap()
		t := time.Now()
		res, err := ssrank.RunDistributed(cfg, ssrank.DistRun{Workers: w.conns})
		wall := time.Since(t)
		e.chk.budgeted("distributed run", res, err, budget)
		w.sums = append(w.sums, digestResult(res))
		w.runOps = append(w.runOps, newRunOp(cfg, res, wall))
	}
	w.peakMB = peakRSSMB(os.Getpid())
}

// verify runs every measured Config in-process: distribution must not
// change a single byte of the Result.
func (w *distFleet) verify(e *env) {
	for i, op := range w.runOps {
		freshHeap()
		t := time.Now()
		ref, err := ssrank.Run(op.cfg)
		w.refs = append(w.refs, time.Since(t))
		e.chk.budgeted("in-process reference", ref, err, op.cfg.MaxInteractions)
		e.chk.check(digestResult(ref) == w.sums[i], "distributed run of seed %d differs from the in-process run of its Config", op.cfg.Seed)
	}
}

func (w *distFleet) endToEnd() metrics { return runMetrics(w.runOps, w.peakMB) }

// trace runs every measured Config again over connections that count
// the coordinator's wire traffic, with a progress hook marking each
// committed batch barrier.
func (w *distFleet) trace(e *env) (overhead, gap float64) {
	var wire wireCount
	conns := make([]net.Conn, len(w.conns))
	for i, c := range w.conns {
		conns[i] = countingConn{Conn: c, n: &wire}
	}
	var batchMS, assignS []float64
	var out, in, writes, intervals int64
	var traced, untraced, explained time.Duration
	for i, op := range w.runOps {
		freshHeap()
		var marks []time.Time
		var snaps [][3]int64
		id := e.tr.open(0, "dist.run")
		start := time.Now()
		res, err := ssrank.RunDistributed(op.cfg, ssrank.DistRun{Workers: conns, OnBatch: func(int64) {
			marks = append(marks, time.Now())
			snaps = append(snaps, [3]int64{wire.out.Load(), wire.in.Load(), wire.writes.Load()})
		}})
		traced += time.Since(start)
		untraced += op.wall
		e.tr.close(id, res.Interactions)
		e.chk.check(digestResult(res) == w.sums[i] && (err == nil) == op.res.Converged,
			"traced distributed run of seed %d differs from the untraced one (err %v)", op.cfg.Seed, err)
		if len(marks) < 2 {
			continue
		}
		last := len(marks) - 1
		e.tr.add(id, "dist.assign", start, marks[0], 1, whole)
		e.tr.add(id, "dist.batches", marks[0], marks[last], int64(last), whole)
		assignS = append(assignS, marks[0].Sub(start).Seconds())
		for i := 1; i <= last; i++ {
			batchMS = append(batchMS, float64(marks[i].Sub(marks[i-1]).Nanoseconds())/1e6)
		}
		// Traffic between the first and last barrier: whole batches,
		// without the assignment that ships the population.
		out += snaps[last][0] - snaps[0][0]
		in += snaps[last][1] - snaps[0][1]
		writes += snaps[last][2] - snaps[0][2]
		intervals += int64(last)
		explained += marks[last].Sub(start)
	}
	var workerPeak float64
	for _, h := range w.workers {
		workerPeak = max(workerPeak, peakRSSMB(h.pid()))
	}
	var ref time.Duration
	for _, d := range w.refs {
		ref += d
	}
	perBatch := func(v int64) float64 { return float64(v) / float64(intervals) }
	e.layer.set("dist.batch_ms_p50", stats.Median(batchMS), "ms", len(batchMS))
	e.layer.set("dist.batch_ms_p90", stats.Quantile(batchMS, 0.9), "ms", len(batchMS))
	e.layer.set("dist.bytes_out_per_batch", perBatch(out), "B", int(intervals))
	e.layer.set("dist.bytes_in_per_batch", perBatch(in), "B", int(intervals))
	e.layer.set("dist.writes_per_batch", perBatch(writes), "count", int(intervals))
	e.layer.set("dist.assign_s", stats.Median(assignS), "s", len(assignS))
	e.layer.set("dist.worker_peak_rss_mb", workerPeak, "MB", len(w.workers))
	e.layer.set("dist.overhead_x", ratio(untraced, ref), "x", len(w.refs))
	return ratio(traced, untraced) - 1, 1 - ratio(explained, untraced)
}

// wireCount tallies the coordinator side of the wire.
type wireCount struct {
	out, in, writes atomic.Int64
}

// countingConn counts the bytes and write calls that cross one
// coordinator connection.
type countingConn struct {
	net.Conn
	n *wireCount
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.in.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.out.Add(int64(k))
	c.n.writes.Add(1)
	return k, err
}
