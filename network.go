package ssrank

import (
	"fmt"

	"ssrank/internal/ckpt"
	"ssrank/internal/sim"
	"ssrank/internal/sim/msgnet"
)

// Scheduler selects the communication model a run executes under.
// The zero value is the paper's model: uniformly random ordered pairs
// applied atomically on the fast in-place engines. Naming any
// scheduler — even SchedulerUniform — or setting any non-zero Faults
// routes the run through the round-based message network
// (internal/sim/msgnet): agents become message machines exchanging
// request/reply state snapshots, contacts are drawn from the selected
// topology, and the configured faults perturb the messages in flight.
//
// Message-network runs are exactly reproducible — the trajectory is a
// pure function of (Config) at any ShardWorkers setting — but they
// follow a different law than the in-place engines (rounds, rendezvous
// blocking, two-phase interactions), so their interaction counts are
// comparable between message-network runs, not with the uniform
// in-place numbers. Stops are polled per round (Result.Exact = false)
// and Config.Shards is ignored on this path.
//
// A caveat that is itself a finding: the paper's ranking protocols
// resolve rank conflicts by direct meetings, so they converge on the
// complete contact graph (SchedulerUniform) but generally never on
// the sparse topologies — two agents holding the same rank on
// opposite sides of a ring cannot meet to notice. Expect
// ErrNotConverged there; the fault-regime experiment (cmd/figures
// E19) measures exactly this.
type Scheduler string

const (
	// SchedulerUniform draws each contact as a uniformly random
	// ordered pair — the paper's scheduler, chopped into rounds when
	// routed through the message network.
	SchedulerUniform Scheduler = Scheduler(msgnet.Uniform)
	// SchedulerRing restricts contacts to the cycle 0–1–…–(n-1)–0.
	SchedulerRing Scheduler = Scheduler(msgnet.Ring)
	// SchedulerStar funnels every contact through center agent 0.
	SchedulerStar Scheduler = Scheduler(msgnet.Star)
	// SchedulerPingPong deterministically alternates (0,1), (1,0), …;
	// agents ≥ 2 never communicate — the minimal adversarial schedule.
	SchedulerPingPong Scheduler = Scheduler(msgnet.PingPong)
	// SchedulerExpander draws contacts from a fixed seed-derived
	// near-4-regular expander (union of two random Hamiltonian
	// cycles).
	SchedulerExpander Scheduler = Scheduler(msgnet.Expander)
	// SchedulerPowerLaw draws contacts from a fixed seed-derived
	// Barabási–Albert preferential-attachment graph (hub-dominated
	// degrees).
	SchedulerPowerLaw Scheduler = Scheduler(msgnet.PowerLaw)
)

// Schedulers lists every available communication topology, in
// registry order.
func Schedulers() []Scheduler {
	names := msgnet.Schedulers()
	out := make([]Scheduler, len(names))
	for i, n := range names {
		out[i] = Scheduler(n)
	}
	return out
}

// Faults configures message-network fault injection. Any non-zero
// field routes the run through the message network even under
// SchedulerUniform. Fault fates are drawn per message from a
// seed-derived stream, so fault outcomes are a pure function of
// (Config) — see internal/sim/msgnet for the hazard taxonomy (lost,
// half-applied, replayed, and stale-overwritten interactions).
type Faults struct {
	// DropProb is the probability a message is lost in flight.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayMax, when > 0, delays each message by a uniform number of
	// rounds in [0, DelayMax].
	DelayMax int
	// ReorderProb is the probability a round's delivery queue is
	// shuffled.
	ReorderProb float64
}

// toMsgnet converts the public fault knobs to the engine's fault
// model.
func (f Faults) toMsgnet() msgnet.Faults {
	return msgnet.Faults{Drop: f.DropProb, Dup: f.DupProb, DelayMax: f.DelayMax, Reorder: f.ReorderProb}
}

// messageNetwork reports whether the configuration routes through the
// message-network engine: any named scheduler (an explicit
// SchedulerUniform included — it is the fault-free message-network
// reference) or any fault injection. A zero Scheduler with zero
// Faults keeps the fast in-place engines.
func (cfg Config) messageNetwork() bool {
	return cfg.Scheduler != "" || cfg.Faults != Faults{}
}

// checkNetwork validates the communication-model knobs (normalize
// calls it for every entry point).
func checkNetwork(cfg Config) error {
	if cfg.Scheduler != "" {
		ok := false
		for _, s := range Schedulers() {
			if cfg.Scheduler == s {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("ssrank: unknown scheduler %q (have %v)", cfg.Scheduler, Schedulers())
		}
	}
	return cfg.Faults.toMsgnet().Validate()
}

// newMsgNet builds the message network for a vetted Config.
func newMsgNet[S any, P sim.Protocol[S]](cfg Config, p P, init []S) (*msgnet.Network[S, P], error) {
	sched, err := msgnet.NewScheduler(string(cfg.Scheduler), cfg.N, 0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return msgnet.New[S](p, init, msgnet.Config{
		Sched:   sched,
		Faults:  cfg.Faults.toMsgnet(),
		Workers: cfg.ShardWorkers,
		Seed:    cfg.Seed,
	}), nil
}

// netEngine runs the population on the message network. Control is
// round-granular — Step(k) and the stop checks advance whole
// communication rounds — so interaction counts overshoot their targets
// by up to one round. Every call goes through msgnet.Network.RunUntil,
// so every call has one round backstop: the rounds it executes are
// bounded by the interactions it has left to deliver.
type netEngine[S any, P sim.Protocol[S]] struct {
	nw    *msgnet.Network[S, P]
	valid func([]S) bool
}

func (e *netEngine[S, P]) states() []S   { return e.nw.States() }
func (e *netEngine[S, P]) steps() int64  { return e.nw.Steps() }
func (e *netEngine[S, P]) rounds() int64 { return e.nw.Rounds() }

// step advances rounds until k more interactions were delivered — or
// k rounds have passed, the backstop for regimes that deliver almost
// nothing (e.g. DropProb 1).
func (e *netEngine[S, P]) step(k int64) {
	e.nw.RunUntil(func([]S) bool { return false }, e.nw.Steps()+k)
}

// runUntil polls the stop condition once per round, so a stop is
// never exact (hit -1); the window end target is part of the polled
// predicate, and the backstop is the rest of the budget.
func (e *netEngine[S, P]) runUntil(target, budget int64) (int64, bool) {
	stable := false
	e.nw.RunUntil(func(states []S) bool {
		stable = e.valid(states)
		return stable || e.nw.Steps() >= target
	}, budget)
	return -1, stable
}

// checkpoint rejects checkpointing: the message network's in-flight
// mailboxes, per-agent protocol phases and fault stream positions are
// not serializable state, and Result.Exact is never true on this path
// anyway — see DESIGN.md §8.
func (e *netEngine[S, P]) checkpoint() (uint64, func(*ckpt.Writer), error) {
	return 0, nil, fmt.Errorf("ssrank: message-network simulations are not checkpointable")
}
