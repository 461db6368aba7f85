package ssrank

import (
	"errors"
	"fmt"
	"net"
	"time"

	"ssrank/internal/dist"
	"ssrank/internal/proto"
	"ssrank/internal/sim"
	"ssrank/internal/sim/engine"
)

// DistRun configures RunDistributed.
type DistRun struct {
	// Workers are live connections to ssrank worker processes (each
	// serving ServeWorker on its end). The run adopts up to
	// min(len(Workers), resolved shard count) of them; connections
	// beyond that are left untouched. Connections a run rejects at
	// handshake, or drops after a heartbeat timeout, are closed.
	Workers []net.Conn
	// Timeout is the heartbeat bound: how long the coordinator waits
	// on any single worker frame before declaring the worker dead and
	// migrating its shard group. Zero picks a default (30s).
	Timeout time.Duration
	// OnBatch, when set, is called after every committed batch barrier
	// with the total interactions committed so far — the progress feed
	// of a distributed run.
	OnBatch func(steps int64)
}

// RunDistributed executes one sharded run across worker processes: the
// same trajectory, hitting time and Result bytes as Run with the same
// Config — distribution, like Config.ShardWorkers, trades wall clock
// for hardware without touching the outcome. The config must resolve
// to at least two shards and must not route through the message
// network. Worker deaths are survived as long as one worker remains:
// the dead worker's shard group is re-materialized on a survivor from
// the last batch barrier and the batch replays byte-identically.
//
// The error is ErrNotConverged (wrapped, with the partial Result) when
// the interaction budget runs out, or an infrastructure error when
// every worker died.
func RunDistributed(cfg Config, opts DistRun) (Result, error) {
	d, cfg, err := normalize(cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.messageNetwork() {
		return Result{}, errors.New("ssrank: message-network runs cannot be distributed")
	}
	if cfg.Shards < 2 {
		return Result{}, fmt.Errorf("ssrank: distributed execution needs a config resolving to at least 2 shards, got %d", cfg.Shards)
	}
	if len(opts.Workers) == 0 {
		return Result{}, errors.New("ssrank: no worker connections")
	}
	return d.runDist(cfg, opts)
}

// ServeWorker serves the worker side of distributed runs on one
// coordinator connection, blocking until the connection closes (nil on
// clean shutdown — redialing is the caller's loop; see
// cmd/ssrank-worker). One connection serves many runs: each run's
// coordinator installs a shard group, drives batches, and releases the
// worker back to idle.
func ServeWorker(conn net.Conn) error {
	return dist.Serve(conn, func(h *dist.AssignHeader) (dist.Runtime, error) {
		d, ok := lookup(Protocol(h.Protocol))
		if !ok {
			return nil, fmt.Errorf("ssrank: assignment names unknown protocol %q", h.Protocol)
		}
		return d.distRuntime(Config{
			N:        h.N,
			Protocol: Protocol(h.Protocol),
			Seed:     h.Seed,
			Init:     Init(h.Init),
			Epsilon:  h.Epsilon,
			Shards:   h.Shards,
		}), nil
	})
}

// runDistID is the wire identity of a normalized config — the fields
// the sharded trajectory depends on, nothing more.
func runDistID(cfg Config) dist.RunID {
	return dist.RunID{
		Protocol: string(cfg.Protocol),
		Init:     string(cfg.Init),
		N:        cfg.N,
		Seed:     cfg.Seed,
		Epsilon:  cfg.Epsilon,
		Shards:   cfg.Shards,
	}
}

// runDistDesc runs the coordinator over the configured initial
// configuration and assembles the Result through descResult from its
// committed mirror, like every in-process run, so a distributed run and
// an in-process sharded run of the same canonical Config produce
// byte-identical Results.
func runDistDesc[S any, P sim.TouchReporter[S]](cfg Config, d proto.Descriptor[S, P], opts DistRun) (Result, error) {
	p := d.New(cfg.N)
	init, ierr := engine.Init(d, p, string(cfg.Init), cfg.knobs())
	if ierr != nil {
		return Result{}, fmt.Errorf("ssrank: %w", ierr)
	}
	co, err := dist.NewCoordinator[S](d, p, init, runDistID(cfg), opts.Workers, dist.Options{
		Timeout: opts.Timeout,
		OnBatch: opts.OnBatch,
	})
	if err != nil {
		return Result{}, err
	}
	defer co.Stop()
	hit, err := co.RunUntilExact(sim.DescCond(d, p), cfg.MaxInteractions)
	switch {
	case errors.Is(err, sim.ErrBudgetExhausted):
		hit = -1
	case err != nil:
		return Result{}, fmt.Errorf("ssrank: distributed run failed: %w", err)
	}
	// The workers' counters land back on the coordinator's protocol
	// instance so the Result's instrumentation projections read the
	// whole-run totals, exactly as in-process execution accumulates
	// them.
	if d.SetInstr != nil {
		d.SetInstr(p, co.InstrTotal())
	}
	return outcome(descResult(d, p, cfg, co.States(), co.Steps(), 0, hit))
}
