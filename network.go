package ssrank

import (
	"fmt"
	"slices"

	"ssrank/internal/sim/engine"
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
// Message-network runs are exactly reproducible — the network delivers
// serially, so the trajectory is a pure function of (Config) — but
// they follow a different law than the in-place engines (rounds,
// rendezvous blocking, two-phase interactions), so their interaction
// counts are comparable between message-network runs, not with the
// uniform in-place numbers. Stops are polled per round (Result.Exact =
// false) and Config.Shards and Config.ShardWorkers are ignored on this
// path.
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

// messageNetwork reports whether the configuration routes through the
// message-network engine: any named scheduler (an explicit
// SchedulerUniform included — it is the fault-free message-network
// reference) or any fault injection. A zero Scheduler with zero
// Faults keeps the fast in-place engines.
func (cfg Config) messageNetwork() bool { return cfg.knobs().Network() }

// knobs are the engine knobs internal/sim/engine builds the run from.
func (cfg Config) knobs() engine.Knobs {
	f := cfg.Faults
	return engine.Knobs{
		Seed:      cfg.Seed,
		InitSalt:  initSeedSalt,
		Shards:    cfg.Shards,
		Workers:   cfg.ShardWorkers,
		Scheduler: string(cfg.Scheduler),
		Faults:    msgnet.Faults{Drop: f.DropProb, Dup: f.DupProb, DelayMax: f.DelayMax, Reorder: f.ReorderProb},
	}
}

// checkNetwork validates the communication-model knobs (normalize
// calls it for every entry point).
func checkNetwork(cfg Config) error {
	if cfg.Scheduler != "" && !slices.Contains(Schedulers(), cfg.Scheduler) {
		return fmt.Errorf("ssrank: unknown scheduler %q (have %v)", cfg.Scheduler, Schedulers())
	}
	return cfg.knobs().Faults.Validate()
}
