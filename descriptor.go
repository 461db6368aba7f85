package ssrank

import (
	"ssrank/internal/baseline/aware"
	"ssrank/internal/baseline/cai"
	"ssrank/internal/baseline/interval"
	"ssrank/internal/baseline/sudo"
	"ssrank/internal/ckpt"
	"ssrank/internal/core"
	"ssrank/internal/dist"
	"ssrank/internal/proto"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
)

// initSeedSalt derives the initialization randomness (random inits,
// adversarial draws) from Config.Seed without correlating it with the
// scheduler stream. Fixed forever: changing it would change every
// seeded run with a random init.
const initSeedSalt = 0xc0ffee

// Descriptor is the public view of a registered protocol: what it is
// called, which initial configurations it accepts, whether it
// self-stabilizes, and its default interaction budget. Underneath, it
// carries the type-erased engine paths Run, NewSimulation and
// Replicate dispatch through — one generic implementation for all
// protocols instead of one hand-written runner each.
//
// A protocol registers by constructing a proto.Descriptor in its own
// package (the descriptor contract is documented there and in
// DESIGN.md "Public API") and wiring it into this package's registry.
type Descriptor struct {
	// Protocol is the registered selector.
	Protocol Protocol
	// Inits lists the supported initial configurations; the first
	// entry is the default.
	Inits []Init
	// SelfStabilizing reports whether the protocol converges from
	// arbitrary configurations (and supports Simulation.Corrupt).
	SelfStabilizing bool
	// DefaultBudget returns the interaction budget a zero
	// Config.MaxInteractions resolves to — several times the expected
	// stabilization time, saturating at MaxInt64.
	DefaultBudget func(n int) int64
	// AgentBytes is the in-memory size of one agent's state: a run of
	// N agents builds an agent slab of N × AgentBytes bytes (and every
	// process of a distributed run holds one).
	AgentBytes int
	// TrackerBytes returns the whole exact-stop state a run of a
	// normalized Config holds beside its agent slab: the stop
	// tracker's arrays (for the rank tracker, 4 B per agent and 4 B per
	// rank; Interval's takes 16 B per identifier of its (1+Epsilon)·N
	// space rounded up to a power of two), plus the serial loop's 4 B
	// per agent of collision marks when Shards is 1. It is 0 on the
	// message network, which polls Valid and keeps no tracker.
	TrackerBytes func(cfg Config) int64

	// newSim and resume return a nil *driver inside the handle with
	// any error: callers read the handle only when the error is nil.
	newSim      func(cfg Config) (simHandle, error)
	resume      func(cfg Config, r *ckpt.Reader) (simHandle, error)
	runDist     func(cfg Config, opts DistRun) (Result, error)
	distRuntime func(cfg Config) dist.Runtime
}

// Supports reports whether the protocol registered the named init.
func (d *Descriptor) Supports(init Init) bool {
	for _, i := range d.Inits {
		if i == init {
			return true
		}
	}
	return false
}

// Describe returns the descriptor registered for p. The returned
// value is the caller's own copy: mutating it (or its Inits) cannot
// affect how the registry dispatches.
func Describe(p Protocol) (*Descriptor, bool) {
	if d, ok := lookup(p); ok {
		return d.clone(), true
	}
	return nil, false
}

// Descriptors lists every registered protocol's descriptor, in
// registry order. Each entry is the caller's own copy (see Describe).
func Descriptors() []*Descriptor {
	out := make([]*Descriptor, len(registry))
	for i, d := range registry {
		out[i] = d.clone()
	}
	return out
}

// lookup resolves a protocol to its live registry entry — internal
// dispatch only; public accessors hand out clones.
func lookup(p Protocol) (*Descriptor, bool) {
	for _, d := range registry {
		if d.Protocol == p {
			return d, true
		}
	}
	return nil, false
}

// clone returns a defensive copy sharing only the immutable engine
// closures.
func (d *Descriptor) clone() *Descriptor {
	c := *d
	c.Inits = append([]Init(nil), d.Inits...)
	return &c
}

// registry holds one descriptor per implemented protocol. Protocol
// packages construct the generic descriptors (their desc.go);
// describe erases the state type so they can share one table.
var registry = []*Descriptor{
	describe(func(Config) proto.Descriptor[stable.State, *stable.Protocol] {
		return stable.Describe()
	}),
	describe(func(Config) proto.Descriptor[core.State, *core.Protocol] {
		return core.Describe()
	}),
	describe(func(Config) proto.Descriptor[cai.State, *cai.Protocol] {
		return cai.Describe()
	}),
	describe(func(Config) proto.Descriptor[aware.State, *aware.Protocol] {
		return aware.Describe()
	}),
	describe(func(cfg Config) proto.Descriptor[interval.State, *interval.Protocol] {
		return interval.Describe(cfg.Epsilon)
	}),
	describe(func(Config) proto.Descriptor[sudo.State, *sudo.Protocol] {
		return sudo.Describe(sudo.DefaultTimeoutFactor)
	}),
}

// describe erases a protocol package's generic descriptor into the
// public registry entry, binding the one generic driver to it. mk
// rebuilds the descriptor per call so per-run parameters (Interval's ε)
// come from the Config. It derives the state type's layout, which both
// agent codecs run on, so a state type without one panics here, at
// registration, rather than at its first checkpoint or distributed run.
func describe[S any, P sim.TouchReporter[S]](mk func(Config) proto.Descriptor[S, P]) *Descriptor {
	meta := mk(Config{Epsilon: 1})
	inits := make([]Init, len(meta.Inits))
	for i, name := range meta.Inits {
		inits[i] = Init(name)
	}
	return &Descriptor{
		Protocol:        Protocol(meta.Name),
		Inits:           inits,
		SelfStabilizing: meta.SelfStabilizing,
		DefaultBudget:   meta.Budget,
		AgentBytes:      proto.LayoutOf[S]().Size,
		TrackerBytes: func(cfg Config) int64 {
			if cfg.messageNetwork() {
				return 0
			}
			d := mk(cfg)
			b := sim.DescCondBytes(d, d.New(cfg.N), cfg.N)
			if cfg.Shards == 1 {
				b += sim.CondLoopBytes(cfg.N)
			}
			return b
		},
		newSim: func(cfg Config) (simHandle, error) {
			return startDriver(cfg, mk(cfg))
		},
		resume: func(cfg Config, r *ckpt.Reader) (simHandle, error) {
			return resumeDriver(cfg, mk(cfg), r)
		},
		runDist: func(cfg Config, opts DistRun) (Result, error) {
			return runDistDesc(cfg, mk(cfg), opts)
		},
		distRuntime: func(cfg Config) dist.Runtime {
			return dist.NewRuntime(mk(cfg))
		},
	}
}

// run is the one path behind Run and Replicate's trials: the driver
// run until stable within the normalized budget. Serial and sharded
// runs stop at the exact hitting time via the descriptor's incremental
// tracker and the protocol's touch reporting (sim.RunUntilCondT
// serially; the barrier fold of shard.Runner.RunUntilExact sharded),
// so Result.Exact is true on every converged in-place run — transient
// stop conditions (Loose) included, since the tracker catches
// mid-batch satisfying windows a polled scan would miss. Message-
// network runs poll per round.
func (d *Descriptor) run(cfg Config) (Result, error) {
	h, err := d.newSim(cfg)
	if err != nil {
		return Result{}, err
	}
	h.runUntilStable(cfg.MaxInteractions)
	return outcome(h.result())
}
