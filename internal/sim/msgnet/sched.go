package msgnet

import (
	"cmp"
	"fmt"
	"slices"

	"ssrank/internal/rng"
)

// Scheduler emits each round's ordered (initiator, responder) contact
// pairs. Implementations own their randomness (seeded at
// construction), so a schedule is a pure function of (name, n,
// contacts-per-round, seed) — the network's fault stream never
// interleaves with it.
type Scheduler interface {
	// Name returns the scheduler's registered name.
	Name() string
	// Contacts appends this round's contacts to dst and returns it.
	// Pairs must be ordered (initiator, responder), distinct, and in
	// range; the same pair may repeat within a round.
	Contacts(dst [][2]int32) [][2]int32
}

// Scheduler names accepted by NewScheduler.
const (
	// Uniform draws each contact as a uniformly random ordered pair —
	// the paper's scheduler, chopped into rounds.
	Uniform = "uniform"
	// Ring draws each contact as a uniformly random directed edge of
	// the cycle 0–1–…–(n-1)–0: every agent talks only to its two
	// neighbors.
	Ring = "ring"
	// Star draws each contact as a uniformly random directed edge
	// between center 0 and a leaf: all communication funnels through
	// one hub.
	Star = "star"
	// PingPong deterministically alternates (0,1), (1,0), … — the
	// minimal two-agent adversarial schedule from the closure tests;
	// agents ≥ 2 never communicate.
	PingPong = "ping-pong"
	// Expander draws contacts from a fixed random 4-regular-ish graph
	// (the union of two seed-derived Hamiltonian cycles): sparse but
	// well-connected.
	Expander = "expander"
	// PowerLaw draws contacts from a fixed seed-derived
	// Barabási–Albert preferential-attachment graph (m = 2): sparse
	// with hub-dominated degrees.
	PowerLaw = "power-law"
)

// Schedulers lists the registered scheduler names, in registry order.
func Schedulers() []string {
	return []string{Uniform, Ring, Star, PingPong, Expander, PowerLaw}
}

// DefaultContacts is the default number of contacts per round for a
// population of n agents: n/2 (at least 1) — in expectation every
// agent participates in about one interaction per round, so rounds
// track parallel time.
func DefaultContacts(n int) int {
	if n < 2 {
		return 1
	}
	return n / 2
}

// NewScheduler constructs the named scheduler for a population of n
// agents emitting `contacts` pairs per round (< 1 = DefaultContacts).
// It errors on an unknown name and on populations too small for the
// topology.
func NewScheduler(name string, n, contacts int, seed uint64) (Scheduler, error) {
	if n < 2 {
		return nil, fmt.Errorf("msgnet: scheduler %q needs n >= 2, got %d", name, n)
	}
	if contacts < 1 {
		contacts = DefaultContacts(n)
	}
	switch name {
	case Uniform, "":
		return NewUniform(n, contacts, seed), nil
	case Ring:
		return &edgeSched{name: Ring, edges: ringEdges(n), contacts: contacts, r: rng.New(seed)}, nil
	case Star:
		return &edgeSched{name: Star, edges: starEdges(n), contacts: contacts, r: rng.New(seed)}, nil
	case PingPong:
		return &pingPong{contacts: contacts}, nil
	case Expander:
		return &edgeSched{name: Expander, edges: expanderEdges(n, seed), contacts: contacts, r: rng.New(seed)}, nil
	case PowerLaw:
		return &edgeSched{name: PowerLaw, edges: powerLawEdges(n, seed), contacts: contacts, r: rng.New(seed)}, nil
	default:
		return nil, fmt.Errorf("msgnet: unknown scheduler %q (have %v)", name, Schedulers())
	}
}

// uniform is the paper's scheduler chopped into rounds.
type uniform struct {
	n, contacts int
	r           *rng.RNG
}

// NewUniform returns the uniform scheduler over n agents with the
// given contacts per round (< 1 = DefaultContacts).
func NewUniform(n, contacts int, seed uint64) Scheduler {
	if contacts < 1 {
		contacts = DefaultContacts(n)
	}
	return &uniform{n: n, contacts: contacts, r: rng.New(seed)}
}

func (u *uniform) Name() string { return Uniform }

func (u *uniform) Contacts(dst [][2]int32) [][2]int32 {
	for i := 0; i < u.contacts; i++ {
		a, b := u.r.Pair(u.n)
		dst = append(dst, [2]int32{int32(a), int32(b)})
	}
	return dst
}

// edgeSched draws each contact as a uniformly random undirected edge
// of a fixed graph, with a coin flip for direction — the standard
// restriction of the uniform scheduler to a contact graph.
type edgeSched struct {
	name     string
	edges    [][2]int32
	contacts int
	r        *rng.RNG
}

func (e *edgeSched) Name() string { return e.name }

func (e *edgeSched) Contacts(dst [][2]int32) [][2]int32 {
	for i := 0; i < e.contacts; i++ {
		edge := e.edges[e.r.Intn(len(e.edges))]
		if e.r.Bool() {
			edge[0], edge[1] = edge[1], edge[0]
		}
		dst = append(dst, edge)
	}
	return dst
}

// pingPong alternates (0,1), (1,0) deterministically.
type pingPong struct {
	contacts int
	flip     bool
}

func (p *pingPong) Name() string { return PingPong }

func (p *pingPong) Contacts(dst [][2]int32) [][2]int32 {
	for i := 0; i < p.contacts; i++ {
		if p.flip {
			dst = append(dst, [2]int32{1, 0})
		} else {
			dst = append(dst, [2]int32{0, 1})
		}
		p.flip = !p.flip
	}
	return dst
}

// ringEdges returns the undirected edges of the n-cycle.
func ringEdges(n int) [][2]int32 {
	edges := make([][2]int32, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int32{int32(i), int32((i + 1) % n)}
	}
	if n == 2 {
		return edges[:1]
	}
	return edges
}

// starEdges returns the undirected edges of the n-star centered at 0.
func starEdges(n int) [][2]int32 {
	edges := make([][2]int32, n-1)
	for i := 1; i < n; i++ {
		edges[i-1] = [2]int32{0, int32(i)}
	}
	return edges
}

// expanderEdges returns the union of two seed-derived random
// Hamiltonian cycles — a standard near-4-regular expander
// construction — deduplicated.
func expanderEdges(n int, seed uint64) [][2]int32 {
	r := rng.New(seed ^ 0x657870) // "exp": decorrelate from edge draws
	seen := map[[2]int32]bool{}
	var edges [][2]int32
	add := func(a, b int32) {
		if a > b {
			a, b = b, a
		}
		if e := ([2]int32{a, b}); !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for c := 0; c < 2; c++ {
		p := r.Perm(n)
		for i := 0; i < n; i++ {
			add(int32(p[i]), int32(p[(i+1)%n]))
		}
	}
	// Canonical order: the map tracked membership, the slice preserved
	// insertion order; sort so the edge list is a pure function of
	// (n, seed) with no dependence on construction incidentals.
	slices.SortFunc(edges, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return edges
}

// powerLawEdges returns a seed-derived Barabási–Albert
// preferential-attachment graph with m = 2: each new vertex attaches
// to two earlier vertices chosen proportionally to their current
// degree (via the repeated-endpoint list), yielding a power-law
// degree distribution with hubs.
func powerLawEdges(n int, seed uint64) [][2]int32 {
	r := rng.New(seed ^ 0x706c) // "pl"
	edges := [][2]int32{{0, 1}}
	// endpoints lists every edge endpoint; sampling it uniformly is
	// degree-proportional sampling.
	endpoints := []int32{0, 1}
	for v := int32(2); v < int32(n); v++ {
		t0 := endpoints[r.Intn(len(endpoints))]
		t1 := t0
		for tries := 0; t1 == t0 && tries < 32; tries++ {
			t1 = endpoints[r.Intn(len(endpoints))]
		}
		if t1 == t0 {
			// Degenerate draw after bounded retries (possible only for
			// tiny v): fall back to a uniform distinct earlier vertex
			// to keep the graph simple.
			for t1 == t0 {
				t1 = int32(r.Intn(int(v)))
			}
		}
		edges = append(edges, [2]int32{t0, v}, [2]int32{t1, v})
		endpoints = append(endpoints, t0, v, t1, v)
	}
	return edges
}
