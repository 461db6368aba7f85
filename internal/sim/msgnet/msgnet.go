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
// rendezvous filtering, fault fates, delivery order — is made
// serially by the coordinator from two seed-derived streams
// (scheduler and fault), before and after the round's delivery phase.
// The delivery phase itself only applies choices already made:
// messages due in a round are partitioned by recipient, each
// recipient's messages apply in queue order, and deliveries to
// distinct recipients touch disjoint state (a message's payload was
// snapshotted at send time), so they commute. Workers therefore trade
// wall clock for cores only; the trajectory is a pure function of
// (initial configuration, Config) at any worker count — locked by the
// worker-invariance test — so re-running the seed reproduces any
// execution, faulty ones included, exactly.
//
// The package exists for fidelity, not speed: the
// message store costs two orders of magnitude more per interaction
// than the in-place hot loop. Use it to measure what imperfect
// communication does to stabilization, not to measure stabilization
// fast.
package msgnet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
)

// faultSalt decorrelates the fault stream from the scheduler stream
// (which consumes the raw seed). Fixed forever: changing it would
// change every seeded faulty run.
const faultSalt = 0x6d73676e // "msgn"

// ErrBudgetExhausted is returned by RunUntil when the stop condition
// did not hold within the interaction budget (or, for regimes that
// deliver nothing, within the round backstop).
var ErrBudgetExhausted = errors.New("msgnet: interaction budget exhausted before stop condition held")

type msgKind uint8

const (
	kindRequest msgKind = iota + 1
	kindReply
)

// msg is one in-flight message. payload is the state snapshot taken
// at send time; copies counts the outstanding deliveries (2 for a
// duplicated message), so the store can free the message after its
// last delivery.
type msg[S any] struct {
	kind     msgKind
	src, dst int32
	copies   int32
	payload  S
}

// Faults configures the per-message fault model. Every fate is drawn
// from the dedicated fault stream at send time, in creation order, so
// fault outcomes are a pure function of (seed, Faults) — independent
// of workers and of wall clock. The zero value injects nothing.
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
	// per-recipient order is observable (deliveries to distinct
	// recipients commute), which is exactly the order a real
	// network's interleaving perturbs.
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
	// Workers bounds the delivery worker pool; < 1 means one per CPU.
	// The trajectory never depends on it.
	Workers int
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
// not safe for concurrent use by multiple goroutines (the worker pool
// is internal to a round).
type Network[S any, P sim.Protocol[S]] struct {
	proto   P
	states  []S
	sched   Scheduler
	faults  Faults
	faultR  *rng.RNG
	workers int

	round    int64
	steps    int64
	nextID   int64
	msgs     map[int64]*msg[S]
	due      map[int64][]int64
	inflight int64

	// busy marks agents with an outstanding reply (engaged in an
	// interaction); releases schedules lock releases for agents whose
	// reply was dropped at send (the timeout path — normally the reply
	// delivery itself releases the lock). Both are coordinator-only
	// state: the parallel delivery phase never touches them.
	busy     []bool
	releases map[int64][]int32

	blocked, deferred, dropped, duplicated, delayed, reordered int64

	// Per-round scratch, reused across rounds.
	rawContacts [][2]int32
	contactBuf  [][2]int32
	taken       []bool
	order       []int32
	replies     []pendingReply[S]
}

// pendingReply is a reply produced during the delivery phase, staged
// by delivery slot so workers write disjoint entries; the coordinator
// turns them into messages (and draws their fates) serially afterward.
type pendingReply[S any] struct {
	ok       bool
	src, dst int32
	payload  S
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
		workers:  resolveWorkers(cfg.Workers),
		msgs:     map[int64]*msg[S]{},
		due:      map[int64][]int64{},
		busy:     make([]bool, len(states)),
		releases: map[int64][]int32{},
		taken:    make([]bool, len(states)),
	}
}

func resolveWorkers(w int) int {
	if w < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return w
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
//     (Reorder); a serial lock pass then releases the rendezvous lock
//     of each reply's recipient and defers requests addressed to
//     still-engaged agents to the next round;
//  3. messages are delivered, partitioned by recipient across the
//     worker pool: a request applies Transition(snapshot, responder)
//     and stages a reply carrying the updated snapshot; a reply
//     overwrites the initiator's state;
//  4. staged replies become messages due no earlier than the next
//     round, their fates drawn serially in delivery-slot order.
func (nw *Network[S, P]) Round() {
	r := nw.round

	// 1. Contacts and request creation: IDs are assigned to the
	// surviving contacts in schedule order.
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
	reqBase := nw.nextID
	for i, c := range contacts {
		nw.taken[c[0]], nw.taken[c[1]] = false, false
		nw.busy[c[0]] = true
		nw.send(reqBase+int64(i), kindRequest, c[0], c[1], nw.states[c[0]], r)
	}
	nw.nextID = reqBase + int64(len(contacts))

	// 2. Delivery queue. Occurrences were appended in creation order
	// (IDs are monotonic), so without Reorder the queue is the
	// deterministic send order — last round's replies before this
	// round's requests, which is what keeps a fault-free round
	// sequentially consistent at each recipient.
	dueIDs := nw.due[r]
	delete(nw.due, r)
	if nw.faults.Reorder > 0 && len(dueIDs) > 1 && nw.faultR.Float64() < nw.faults.Reorder {
		nw.faultR.Shuffle(len(dueIDs), func(i, j int) { dueIDs[i], dueIDs[j] = dueIDs[j], dueIDs[i] })
		nw.reordered++
	}
	// Serial lock pass, in queue order: a reply releases its
	// recipient's rendezvous lock; a request addressed to an agent
	// still engaged in its own interaction is deferred to the next
	// round (it cannot respond mid-rendezvous — delivering anyway
	// would let the engaged agent's inbound reply overwrite the
	// interaction, corrupting even a fault-free run).
	kept := dueIDs[:0]
	for _, id := range dueIDs {
		m := nw.msgs[id]
		if m.kind == kindRequest && nw.busy[m.dst] {
			nw.due[r+1] = append(nw.due[r+1], id)
			nw.deferred++
			continue
		}
		if m.kind == kindReply {
			nw.busy[m.dst] = false
		}
		kept = append(kept, id)
	}
	dueIDs = kept

	// 3. Delivery (the only phase that may run on workers).
	nw.deliver(dueIDs)

	// 4. Staged replies become messages, fates drawn serially in slot
	// order; due no earlier than round r+1 (no intra-round cascades —
	// that is what keeps deliveries commutative within a round).
	replyBase := nw.nextID
	for i := range nw.replies {
		pr := &nw.replies[i]
		if !pr.ok {
			continue
		}
		nw.send(replyBase+int64(i), kindReply, pr.src, pr.dst, pr.payload, r+1)
	}
	nw.nextID = replyBase + int64(len(dueIDs))

	// Free fully delivered messages.
	for _, id := range dueIDs {
		m := nw.msgs[id]
		if m.copies--; m.copies == 0 {
			delete(nw.msgs, id)
		}
	}
	nw.inflight -= int64(len(dueIDs))
	nw.round++
}

// send assigns fault fates to a freshly created message and schedules
// its delivery occurrences. earliest is the first round the message
// may be delivered in (the current round for requests, the next for
// replies). Fate draws happen only for enabled fault axes, so a
// zero-fault configuration consumes no fault randomness. A dropped
// message schedules the initiator's rendezvous release (the agent
// times out instead of waiting forever for a reply that cannot come).
func (nw *Network[S, P]) send(id int64, kind msgKind, src, dst int32, payload S, earliest int64) {
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
	copies := int32(1)
	if f.Dup > 0 && nw.faultR.Float64() < f.Dup {
		copies = 2
		nw.duplicated++
	}
	nw.msgs[id] = &msg[S]{kind: kind, src: src, dst: dst, copies: copies, payload: payload}
	for c := int32(0); c < copies; c++ {
		delay := int64(0)
		if f.DelayMax > 0 {
			delay = int64(nw.faultR.Intn(f.DelayMax + 1))
			if delay > 0 {
				nw.delayed++
			}
		}
		dueRound := earliest + delay
		nw.due[dueRound] = append(nw.due[dueRound], id)
		nw.inflight++
	}
}

// deliver applies one round's delivery queue. Slots are grouped by
// recipient (stable in queue order within a group) and groups are
// split across the worker pool; deliveries to distinct recipients
// commute — payloads were snapshotted at send time and a delivery
// mutates only its recipient's state and its own staged-reply slot
// (lock bookkeeping already happened in the coordinator's serial lock
// pass) — so the result is identical at every worker count.
func (nw *Network[S, P]) deliver(ids []int64) {
	n := len(ids)
	if cap(nw.replies) < n {
		nw.replies = make([]pendingReply[S], n)
	}
	nw.replies = nw.replies[:n]
	for i := range nw.replies {
		nw.replies[i] = pendingReply[S]{}
	}
	if n == 0 {
		return
	}

	// Interactions are counted serially so steps never depend on the
	// worker schedule.
	for _, id := range ids {
		if nw.msgs[id].kind == kindRequest {
			nw.steps++
		}
	}

	if cap(nw.order) < n {
		nw.order = make([]int32, n)
	}
	order := nw.order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := nw.msgs[ids[order[i]]].dst, nw.msgs[ids[order[j]]].dst
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})

	// Group boundaries: starts[g] is the first slot of recipient
	// group g in order.
	starts := []int{0}
	for i := 1; i < n; i++ {
		if nw.msgs[ids[order[i]]].dst != nw.msgs[ids[order[i-1]]].dst {
			starts = append(starts, i)
		}
	}
	starts = append(starts, n)
	groups := len(starts) - 1

	workers := nw.workers
	if workers > groups {
		workers = groups
	}
	if workers <= 1 || n < 64 {
		nw.deliverSlots(ids, order, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := starts[w*groups/workers], starts[(w+1)*groups/workers]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			nw.deliverSlots(ids, order, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// deliverSlots applies the deliveries of order[lo:hi] — whole
// recipient groups, in per-recipient queue order.
func (nw *Network[S, P]) deliverSlots(ids []int64, order []int32, lo, hi int) {
	for _, slot := range order[lo:hi] {
		m := nw.msgs[ids[slot]]
		if m.kind == kindRequest {
			u := m.payload
			nw.proto.Transition(&u, &nw.states[m.dst])
			nw.replies[slot] = pendingReply[S]{ok: true, src: m.dst, dst: m.src, payload: u}
		} else {
			nw.states[m.dst] = m.payload
		}
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
// returning ErrBudgetExhausted once maxSteps interactions were
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
	return nw.steps, ErrBudgetExhausted
}
