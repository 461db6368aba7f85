// Package msgnet executes population protocols on a round-based
// message network — the adversarial communication model the in-place
// engines idealize away. Agents are message machines: an interaction
// is a *request* message carrying the initiator's state snapshot to
// the responder, which applies the joint transition on delivery and
// answers with a *reply* carrying the initiator's updated state back;
// the initiator adopts it when (and if) the reply arrives. While a
// reply is outstanding the initiator is engaged (rendezvous
// semantics) and the scheduler's contacts involving it are blocked,
// and each round's surviving contacts form a matching — so on a
// perfect network every interaction is atomic from both endpoints'
// view and a run is a sequentially consistent execution of the
// standard model (some interaction sequence), which is why all six
// protocols — including the non-self-stabilizing ones — stabilize
// through msgnet exactly as they do on the in-place engines.
//
// A per-round fault stage then breaks exactly that guarantee: it can
// drop, duplicate, delay, and reorder in-flight messages, producing
// the communication hazards a self-stabilizing protocol claims to
// survive — lost interactions (dropped request), half-applied
// interactions (request delivered, reply dropped: the responder
// updated, the initiator did not), replayed interactions (duplicated
// request applying a stale snapshot again), and stale-state
// overwrites (a duplicated or delayed reply landing after the
// initiator has moved on).
//
// Determinism. Every nondeterministic choice — contact pairs,
// rendezvous filtering, fault fates, delivery order — is drawn from
// two seed-derived streams (scheduler and fault), and a round applies
// its delivery queue serially, in queue order; deliveries draw no
// randomness, so fault fates are drawn in the order messages are
// sent. The trajectory is therefore a pure function of (initial
// configuration, Config), and re-running the seed reproduces any
// execution, faulty ones included, exactly.
//
// The package exists for fidelity, not speed: a message round trip
// costs an order of magnitude more per interaction than the in-place
// hot loop. Use it to measure what imperfect communication does to
// stabilization, not to measure stabilization fast.
package msgnet

import (
	"fmt"
	"math"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
)

// faultSalt decorrelates the fault stream from the scheduler stream
// (which consumes the raw seed). Fixed forever: changing it would
// change every seeded faulty run.
const faultSalt = 0x6d73676e // "msgn"

type msgKind uint8

const (
	kindRequest msgKind = iota + 1
	kindReply
)

// msg is one in-flight message delivery. payload is the state
// snapshot taken at send time; a duplicated message is two of them.
type msg[S any] struct {
	kind     msgKind
	src, dst int32
	payload  S
}

// Faults configures the per-message fault model. Every fate is drawn
// from the dedicated fault stream at send time, in creation order, so
// fault outcomes are a pure function of (seed, Faults). The zero value injects nothing.
type Faults struct {
	// Drop is the probability a sent message is lost. A dropped
	// request is an interaction that never happens; a dropped reply
	// leaves the responder updated but not the initiator — a
	// half-applied interaction. The network releases the initiator's
	// rendezvous lock one round after a drop (a timeout, in effect).
	Drop float64
	// Dup is the probability a sent message is delivered twice. A
	// duplicated request applies the (stale-snapshot) interaction
	// again; a duplicated reply overwrites the initiator a second
	// time, possibly after it has moved on.
	Dup float64
	// DelayMax, when > 0, delays each surviving message copy by a
	// uniform number of rounds in [0, DelayMax]. Delayed messages
	// carry their send-time snapshot, so late deliveries act with —
	// and write back — stale state.
	DelayMax int
	// Reorder is the probability that a round's delivery queue is
	// shuffled instead of processed in creation order. Only the
	// per-recipient order is observable (a message's payload was
	// snapshotted at send time, so deliveries to distinct recipients
	// commute), which is exactly the order a real network's
	// interleaving perturbs.
	Reorder float64
}

// MaxDelay bounds Faults.DelayMax, so that drawing a delay in
// [0, DelayMax] and adding it to a round number cannot overflow.
const MaxDelay = math.MaxInt32

// None reports whether the configuration injects no faults.
func (f Faults) None() bool { return f == Faults{} }

// Validate rejects probabilities outside [0, 1] (NaN included) and
// delays outside [0, MaxDelay].
func (f Faults) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", f.Drop}, {"Dup", f.Dup}, {"Reorder", f.Reorder}} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("msgnet: fault probability %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if f.DelayMax < 0 || f.DelayMax > MaxDelay {
		return fmt.Errorf("msgnet: DelayMax = %d outside [0, %d]", f.DelayMax, MaxDelay)
	}
	return nil
}

// Config parameterizes New.
type Config struct {
	// Sched supplies each round's contact pairs; nil defaults to
	// NewUniform(n, 0, Seed) — uniform random pairs at the default
	// contact count.
	Sched Scheduler
	// Faults is the fault model (zero value = perfect network).
	Faults Faults
	// Seed drives the fault stream (salted; the scheduler carries its
	// own stream).
	Seed uint64
}

// Stats reports a network's cumulative fault and traffic counters.
type Stats struct {
	// Rounds and Interactions mirror Rounds() and Steps().
	Rounds, Interactions int64
	// Blocked counts scheduled contacts that did not happen because an
	// endpoint was engaged in an outstanding interaction or already
	// taken this round (rendezvous semantics).
	Blocked int64
	// Deferred counts request deliveries the network held back a round
	// because the addressee was engaged in its own outstanding
	// interaction (it cannot respond mid-rendezvous); the message is
	// redelivered once the addressee is free.
	Deferred int64
	// Dropped, Duplicated and Delayed count messages by fate (a
	// message can be both duplicated and delayed).
	Dropped, Duplicated, Delayed int64
	// ReorderedRounds counts rounds whose delivery queue was shuffled.
	ReorderedRounds int64
	// InFlight is the number of outstanding message deliveries.
	InFlight int64
}

// Network runs a protocol over a round-based message network. It is
// not safe for concurrent use by multiple goroutines.
type Network[S any, P sim.Protocol[S]] struct {
	proto  P
	states []S
	sched  Scheduler
	faults Faults
	faultR *rng.RNG

	round int64
	steps int64
	// due holds the deliveries of each future round, in send order.
	due      map[int64][]msg[S]
	inflight int64

	// busy marks agents with an outstanding reply (engaged in an
	// interaction); releases schedules lock releases for agents whose
	// reply was dropped at send (the timeout path — normally the reply
	// delivery itself releases the lock).
	busy     []bool
	releases map[int64][]int32

	blocked, deferred, dropped, duplicated, delayed, reordered int64

	// Per-round scratch, reused across rounds.
	rawContacts [][2]int32
	contactBuf  [][2]int32
	taken       []bool
}

// New starts a network over the given initial configuration. The
// states slice is owned by the network afterwards.
func New[S any, P sim.Protocol[S]](p P, states []S, cfg Config) *Network[S, P] {
	if len(states) < 2 {
		panic(fmt.Sprintf("msgnet: population needs at least 2 agents, got %d", len(states)))
	}
	if err := cfg.Faults.Validate(); err != nil {
		panic(err)
	}
	sched := cfg.Sched
	if sched == nil {
		sched = NewUniform(len(states), 0, cfg.Seed)
	}
	return &Network[S, P]{
		proto:    p,
		states:   states,
		sched:    sched,
		faults:   cfg.Faults,
		faultR:   rng.New(cfg.Seed ^ faultSalt),
		due:      map[int64][]msg[S]{},
		busy:     make([]bool, len(states)),
		releases: map[int64][]int32{},
		taken:    make([]bool, len(states)),
	}
}

// N returns the population size.
func (nw *Network[S, P]) N() int { return len(nw.states) }

// States returns the live configuration. The caller must treat it as
// read-only; use Snapshot for a mutable copy.
func (nw *Network[S, P]) States() []S { return nw.states }

// Snapshot returns a copy of the current configuration.
func (nw *Network[S, P]) Snapshot() []S {
	out := make([]S, len(nw.states))
	copy(out, nw.states)
	return out
}

// Steps returns the number of interactions applied so far — delivered
// requests; replies adjust initiator state but do not count.
func (nw *Network[S, P]) Steps() int64 { return nw.steps }

// Rounds returns the number of communication rounds executed.
func (nw *Network[S, P]) Rounds() int64 { return nw.round }

// Stats returns the cumulative fault and traffic counters.
func (nw *Network[S, P]) Stats() Stats {
	return Stats{
		Rounds: nw.round, Interactions: nw.steps,
		Blocked: nw.blocked, Deferred: nw.deferred,
		Dropped: nw.dropped, Duplicated: nw.duplicated, Delayed: nw.delayed,
		ReorderedRounds: nw.reordered, InFlight: nw.inflight,
	}
}

// Round executes one communication round:
//
//  1. rendezvous locks whose reply was dropped time out; the
//     scheduler emits this round's contact pairs, filtered to a
//     matching over agents that are neither engaged nor already taken
//     this round; each surviving contact becomes a request message
//     carrying the initiator's current state (the initiator engages),
//     with fault fates (drop, duplicate, per-copy delay) drawn at
//     send;
//  2. the delivery queue for this round — replies sent last round
//     with delay 0, requests sent now with delay 0, plus earlier
//     messages whose delay expires — is optionally shuffled
//     (Reorder); a lock pass then releases the rendezvous lock of
//     each reply's recipient and defers requests addressed to
//     still-engaged agents to the next round;
//  3. the queue is delivered in order: a request applies
//     Transition(snapshot, responder) and at once sends a reply
//     carrying the updated snapshot, due no earlier than the next
//     round; a reply overwrites the initiator's state.
func (nw *Network[S, P]) Round() {
	r := nw.round

	// 1. Contacts and request creation, in schedule order.
	if rel := nw.releases[r]; rel != nil {
		for _, a := range rel {
			nw.busy[a] = false
		}
		delete(nw.releases, r)
	}
	nw.rawContacts = nw.sched.Contacts(nw.rawContacts[:0])
	contacts := nw.contactBuf[:0]
	for _, c := range nw.rawContacts {
		a, b := c[0], c[1]
		if nw.busy[a] || nw.busy[b] || nw.taken[a] || nw.taken[b] {
			nw.blocked++
			continue
		}
		nw.taken[a], nw.taken[b] = true, true
		contacts = append(contacts, c)
	}
	nw.contactBuf = contacts
	for _, c := range contacts {
		nw.taken[c[0]], nw.taken[c[1]] = false, false
		nw.busy[c[0]] = true
		nw.send(kindRequest, c[0], c[1], nw.states[c[0]], r)
	}

	// 2. Delivery queue. Deliveries were appended in send order, so
	// without Reorder the queue is last round's replies before this
	// round's requests, which is what keeps a fault-free round
	// sequentially consistent at each recipient.
	queue := nw.due[r]
	delete(nw.due, r)
	if nw.faults.Reorder > 0 && len(queue) > 1 && nw.faultR.Float64() < nw.faults.Reorder {
		nw.faultR.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
		nw.reordered++
	}
	// Lock pass, in queue order and before any delivery: a reply
	// releases its recipient's rendezvous lock; a request addressed to
	// an agent still engaged in its own interaction is deferred to the
	// next round (it cannot respond mid-rendezvous — delivering anyway
	// would let the engaged agent's inbound reply overwrite the
	// interaction, corrupting even a fault-free run). Deferred requests
	// queue ahead of this round's replies.
	kept := queue[:0]
	for _, m := range queue {
		if m.kind == kindRequest && nw.busy[m.dst] {
			nw.due[r+1] = append(nw.due[r+1], m)
			nw.deferred++
			continue
		}
		if m.kind == kindReply {
			nw.busy[m.dst] = false
		}
		kept = append(kept, m)
	}

	// 3. Delivery. A reply is due no earlier than round r+1, so no
	// delivery reaches this round's queue.
	for i := range kept {
		m := &kept[i]
		if m.kind == kindRequest {
			nw.steps++
			u := m.payload
			nw.proto.Transition(&u, &nw.states[m.dst])
			nw.send(kindReply, m.dst, m.src, u, r+1)
		} else {
			nw.states[m.dst] = m.payload
		}
	}
	nw.inflight -= int64(len(kept))
	nw.round++
}

// send assigns fault fates to a freshly created message and schedules
// its deliveries. earliest is the first round the message may be
// delivered in (the current round for requests, the next for
// replies). Fate draws happen only for enabled fault axes, so a
// zero-fault configuration consumes no fault randomness. A dropped
// message schedules the initiator's rendezvous release (the agent
// times out instead of waiting forever for a reply that cannot come).
func (nw *Network[S, P]) send(kind msgKind, src, dst int32, payload S, earliest int64) {
	f := nw.faults
	if f.Drop > 0 && nw.faultR.Float64() < f.Drop {
		nw.dropped++
		initiator := src
		if kind == kindReply {
			initiator = dst
		}
		nw.releases[earliest+1] = append(nw.releases[earliest+1], initiator)
		return
	}
	copies := 1
	if f.Dup > 0 && nw.faultR.Float64() < f.Dup {
		copies = 2
		nw.duplicated++
	}
	m := msg[S]{kind: kind, src: src, dst: dst, payload: payload}
	for c := 0; c < copies; c++ {
		delay := int64(0)
		if f.DelayMax > 0 {
			delay = int64(nw.faultR.Intn(f.DelayMax + 1))
			if delay > 0 {
				nw.delayed++
			}
		}
		nw.due[earliest+delay] = append(nw.due[earliest+delay], m)
		nw.inflight++
	}
}

// Run executes k rounds.
func (nw *Network[S, P]) Run(k int64) {
	for i := int64(0); i < k; i++ {
		nw.Round()
	}
}

// RunUntil executes rounds until stop holds over the configuration
// (polled once per round — stops are round-granular, never exact),
// returning sim.ErrBudgetExhausted once maxSteps interactions were
// delivered, or once this call has executed as many rounds as it had
// interactions left to deliver — the backstop that keeps regimes
// delivering (almost) nothing, e.g. Drop = 1, from spinning forever.
// The backstop counts this call's rounds, never the absolute round
// counter: a network that already burned more rounds than maxSteps
// still gets its remaining budget's worth.
func (nw *Network[S, P]) RunUntil(stop func([]S) bool, maxSteps int64) (int64, error) {
	if stop(nw.states) {
		return nw.steps, nil
	}
	// Clamped so the cap cannot overflow near MaxInt64.
	roundCap := nw.round + min(max(maxSteps-nw.steps, 0), math.MaxInt64-nw.round)
	for nw.steps < maxSteps && nw.round < roundCap {
		nw.Round()
		if stop(nw.states) {
			return nw.steps, nil
		}
	}
	return nw.steps, sim.ErrBudgetExhausted
}
