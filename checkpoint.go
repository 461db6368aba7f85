package ssrank

import (
	"fmt"
	"math"

	"ssrank/internal/ckpt"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/sim/engine"
)

// This file implements the facade checkpoint format: a complete,
// versioned, canonical binary serialization of a running in-place
// Simulation. A checkpoint captures everything the trajectory depends
// on — the identity of the run (protocol, init, n, seed, ε, shard
// count), the fault-injection stream, the engine's scheduler position
// (step counter plus every pair stream, prefetch position included),
// the recorded exact hitting time, and the protocol's full mutable
// state (agent slab plus instrumentation counters). Restoring it via
// ResumeSimulation reproduces the interrupted run exactly: the resumed
// simulation executes precisely the interactions the captured one
// would have executed next, so checkpoint/resume at any cut point is
// invisible in the final configuration, step count and Result
// (split-run equivalence; DESIGN.md §8 gives the argument layer by
// layer).
//
// The encoding is canonical — one logical state, one byte string — so
// two checkpoints are equal exactly when the states they capture are.
// The format is versioned by ckptVersion; fields are identified by
// position, never by tag, so evolving the format means bumping the
// version, not reordering fields under the existing one.
//
// Layout (all integers varint unless noted):
//
//	"sscp" magic, version uvarint
//	protocol string, init string, n uvarint,
//	seed u64, epsilon f64 (IEEE bit pattern), shards uvarint
//	fault stream: 4×u64 (xoshiro256** words)
//	engine kind uvarint (0 serial, 2 sharded; 1, the pre-alias
//	  sharded layout of version 1, is refused as unknown)
//	hit varint (-1 = no exact hit recorded), steps varint
//	engine streams:
//	  serial (kind 0): one pair stream — n uvarint, 4×u64 source
//	    state, consumed uvarint, filled bool
//	  sharded (kind 2): master class-label stream 4×u64, shard count
//	    uvarint + one pair stream per shard (layout as above), cross
//	    class count uvarint + 4×u64 per class in compact class order
//	protocol state: the agent slab — n uvarint, then each agent's
//	  fields in struct declaration order (uvarint, zigzag varint or
//	  bool byte) — followed by the descriptor's Instr vector elements
//	  as varints (none when it registers no Instr); one codec for
//	  every protocol, derived from the state type's layout,
//	  proto.Descriptor.WriteState
//
// The engine section is versioned by its kind as well: retiring a
// scheduler layout mints a new kind, and the old kind is then refused
// as unknown.
//
// Message-network simulations are not checkpointable (their in-flight
// mailboxes and fault streams are not serializable state); Checkpoint
// returns an error for them.
const (
	ckptMagic   = "sscp"
	ckptVersion = 2
)

// Checkpoint serializes the simulation's complete state into the
// versioned binary checkpoint format. The returned bytes, together
// with the simulation's Config, reconstruct the run exactly via
// ResumeSimulation: resuming and running to completion yields the
// byte-identical final configuration, hitting time and Result an
// uninterrupted run produces — provided sharded simulations are cut at
// a multiple of the engine's batch period (serial simulations may be
// cut anywhere; see Simulation for why sharded trajectories care about
// barrier placement).
//
// Message-network simulations return an error.
func (s *Simulation) Checkpoint() ([]byte, error) {
	var w ckpt.Writer
	w.Raw([]byte(ckptMagic))
	w.Uvarint(ckptVersion)
	w.String(string(s.cfg.Protocol))
	w.String(string(s.cfg.Init))
	w.Uvarint(uint64(s.cfg.N))
	w.U64(s.cfg.Seed)
	w.F64(s.cfg.Epsilon)
	w.Uvarint(uint64(s.cfg.Shards))
	for _, word := range s.fault.State() {
		w.U64(word)
	}
	if err := s.h.marshal(&w); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// ResumeSimulation reconstructs a Simulation from a Checkpoint. cfg
// must normalize to the identity the checkpoint was taken under —
// same protocol, init, population size, seed, ε and resolved shard
// count; a mismatch is an error, because the trajectory is a pure
// function of those fields and resuming under different ones would
// silently change the run. MaxInteractions and ShardWorkers are free
// to differ: budgets are per-call and the worker count never affects
// the trajectory.
//
// Note the shard count comparison uses the *resolved* count: a
// checkpoint taken under Shards: AutoShards records the count that
// machine resolved to, and resuming with AutoShards on a machine that
// resolves differently is rejected. Pass the recorded count (it is in
// the checkpointed Result.Config and the error message) to resume
// across machines.
func ResumeSimulation(cfg Config, data []byte) (*Simulation, error) {
	d, cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.messageNetwork() {
		return nil, fmt.Errorf("ssrank: message-network simulations are not checkpointable")
	}
	r := ckpt.NewReader(data)
	r.Expect([]byte(ckptMagic))
	if v := r.Uvarint(); r.Err() == nil && v != ckptVersion {
		return nil, fmt.Errorf("ssrank: checkpoint version %d, this build reads version %d", v, ckptVersion)
	}
	protocol := Protocol(r.String())
	init := Init(r.String())
	n := r.Count(math.MaxInt32)
	seed := r.U64()
	epsilon := r.F64()
	shards := r.Count(math.MaxInt32)
	var fs [4]uint64
	for i := range fs {
		fs[i] = r.U64()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ssrank: malformed checkpoint header: %w", err)
	}
	switch {
	case protocol != cfg.Protocol:
		return nil, fmt.Errorf("ssrank: checkpoint is for protocol %q, config names %q", protocol, cfg.Protocol)
	case init != cfg.Init:
		return nil, fmt.Errorf("ssrank: checkpoint is for init %q, config names %q", init, cfg.Init)
	case n != cfg.N:
		return nil, fmt.Errorf("ssrank: checkpoint holds %d agents, config names %d", n, cfg.N)
	case seed != cfg.Seed:
		return nil, fmt.Errorf("ssrank: checkpoint is for seed %d, config names %d", seed, cfg.Seed)
	case math.Float64bits(epsilon) != math.Float64bits(cfg.Epsilon):
		return nil, fmt.Errorf("ssrank: checkpoint is for epsilon %v, config names %v", epsilon, cfg.Epsilon)
	case shards != cfg.Shards:
		return nil, fmt.Errorf("ssrank: checkpoint is for %d shards, config resolves to %d", shards, cfg.Shards)
	}
	fault := rng.New(cfg.Seed ^ 0xfa017)
	if err := fault.SetState(fs); err != nil {
		return nil, fmt.Errorf("ssrank: checkpoint fault stream: %w", err)
	}
	h, err := d.resume(cfg, r)
	if err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("ssrank: malformed checkpoint: %w", err)
	}
	return &Simulation{desc: d, cfg: cfg, h: h, fault: fault}, nil
}

// resumeDriver reconstructs the generic driver from a checkpoint's
// engine section — the per-protocol half of ResumeSimulation, reached
// through the descriptor's type-erased resume hook. engine.Resume reads
// and validates the section against the Config and rebuilds the engine
// over the checkpointed slab with the scheduler position restored.
func resumeDriver[S any, P sim.TouchReporter[S]](cfg Config, d proto.Descriptor[S, P], r *ckpt.Reader) (*driver[S, P], error) {
	eng, hit, err := engine.Resume(d, cfg.N, cfg.knobs(), r)
	if err != nil {
		return nil, fmt.Errorf("ssrank: %w", err)
	}
	return &driver[S, P]{d: d, p: eng.Protocol(), cfg: cfg, eng: eng, hit: hit}, nil
}
