package msgnet

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"ssrank/internal/baseline/aware"
	"ssrank/internal/baseline/cai"
	"ssrank/internal/baseline/interval"
	"ssrank/internal/baseline/sudo"
	"ssrank/internal/core"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
)

const testSeed = 0x5eed

// descInit builds a descriptor's named initial configuration the way
// the facade does (seed salted for init randomness).
func descInit[S any, P any](d proto.Descriptor[S, P], p P, init string, seed uint64) []S {
	return d.Init(p, init, rng.New(seed^0xc0ffee))
}

// checkStabilizes drives one descriptor through the message network
// and asserts its stop condition is reached within the registered
// budget — with zero per-protocol scheduling code, which is the point.
func checkStabilizes[S any, P sim.Protocol[S]](t *testing.T, d proto.Descriptor[S, P], n int, cfg Config) {
	t.Helper()
	p := d.New(n)
	states := descInit(d, p, d.Inits[0], testSeed)
	nw := New[S](p, states, cfg)
	steps, err := nw.RunUntil(d.Valid, d.Budget(n))
	if err != nil {
		t.Fatalf("%s: did not stabilize through msgnet within %d interactions (did %d over %d rounds)",
			d.Name, d.Budget(n), steps, nw.Rounds())
	}
	if !d.Valid(nw.States()) {
		t.Fatalf("%s: RunUntil returned nil but Valid is false", d.Name)
	}
}

// TestAllProtocolsStabilize runs every registered protocol through a
// fault-free message network: rendezvous locking makes the fault-free
// network a sequentially consistent execution of the standard model,
// so even the non-self-stabilizing protocols must converge.
func TestAllProtocolsStabilize(t *testing.T) {
	const n = 16
	cfg := Config{Seed: testSeed}
	t.Run("stable", func(t *testing.T) { checkStabilizes(t, stable.Describe(), n, cfg) })
	t.Run("space-efficient", func(t *testing.T) { checkStabilizes(t, core.Describe(), n, cfg) })
	t.Run("cai", func(t *testing.T) { checkStabilizes(t, cai.Describe(), n, cfg) })
	t.Run("aware", func(t *testing.T) { checkStabilizes(t, aware.Describe(), n, cfg) })
	t.Run("interval", func(t *testing.T) { checkStabilizes(t, interval.Describe(1.0), n, cfg) })
	t.Run("loose", func(t *testing.T) { checkStabilizes(t, sudo.Describe(sudo.DefaultTimeoutFactor), n, cfg) })
}

// TestStabilizesUnderFaults asserts the flagship self-stabilizing
// protocol still converges under a lossy, duplicating, delaying,
// reordering network — the property the whole package exists to
// measure.
func TestStabilizesUnderFaults(t *testing.T) {
	d := stable.Describe()
	const n = 16
	cfg := Config{
		Seed:   testSeed,
		Faults: Faults{Drop: 0.05, Dup: 0.05, DelayMax: 3, Reorder: 0.5},
	}
	checkStabilizes(t, d, n, cfg)
}

// lossyConfig is the heavy-fault configuration the determinism tests
// exercise: every fault axis on at once.
func lossyConfig(seed uint64) Config {
	return Config{
		Seed:   seed,
		Faults: Faults{Drop: 0.1, Dup: 0.1, DelayMax: 3, Reorder: 0.5},
	}
}

// runLossy runs the stable protocol from its fresh configuration for
// `rounds` rounds under cfg and returns the network.
func runLossy(n int, rounds int64, cfg Config) *Network[stable.State, *stable.Protocol] {
	d := stable.Describe()
	p := d.New(n)
	nw := New[stable.State](p, descInit(d, p, "fresh", cfg.Seed), cfg)
	nw.Run(rounds)
	return nw
}

// TestSeedDeterminism asserts fault outcomes are a pure function of
// (seed, config): same seed twice is identical, a different seed
// diverges.
func TestSeedDeterminism(t *testing.T) {
	const n, rounds = 100, 40
	a := runLossy(n, rounds, lossyConfig(testSeed))
	b := runLossy(n, rounds, lossyConfig(testSeed))
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) || a.Stats() != b.Stats() {
		t.Fatal("same (seed, config) produced different runs")
	}
	c := runLossy(n, rounds, lossyConfig(testSeed+1))
	if a.Stats() == c.Stats() && reflect.DeepEqual(a.Snapshot(), c.Snapshot()) {
		t.Fatal("different seeds produced identical runs — fault stream is not seeded")
	}
}

// TestFaultCounters sanity-checks that every enabled fault axis
// actually fires and is counted.
func TestFaultCounters(t *testing.T) {
	nw := runLossy(300, 40, lossyConfig(testSeed))
	st := nw.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 || st.ReorderedRounds == 0 {
		t.Fatalf("enabled fault axes did not all fire: %+v", st)
	}
	if st.Blocked == 0 {
		t.Fatalf("rendezvous filtering never blocked a contact: %+v", st)
	}
	if st.Interactions == 0 {
		t.Fatalf("no interactions delivered: %+v", st)
	}
}

// TestDropEverythingTerminates asserts the round backstop: a network
// that delivers nothing still returns from RunUntil.
func TestDropEverythingTerminates(t *testing.T) {
	d := stable.Describe()
	const n = 16
	p := d.New(n)
	nw := New[stable.State](p, descInit(d, p, "fresh", testSeed), Config{
		Seed:   testSeed,
		Faults: Faults{Drop: 1},
	})
	steps, err := nw.RunUntil(d.Valid, 500)
	if !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if steps != 0 {
		t.Fatalf("a Drop=1 network delivered %d interactions", steps)
	}
	if nw.Rounds() != 500 {
		t.Fatalf("round backstop did not bound the run: %d rounds", nw.Rounds())
	}
}

// TestRunUntilBackstopCountsThisCall pins the backstop rule: each
// RunUntil call may execute as many rounds as it has interactions left
// to deliver, however many rounds earlier calls burned.
func TestRunUntilBackstopCountsThisCall(t *testing.T) {
	d := stable.Describe()
	const n = 16
	p := d.New(n)
	nw := New[stable.State](p, descInit(d, p, "fresh", testSeed), Config{
		Seed:   testSeed,
		Faults: Faults{Drop: 1},
	})
	nw.Run(1000)
	if _, err := nw.RunUntil(d.Valid, 300); !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if nw.Rounds() != 1300 {
		t.Fatalf("a starved call with 300 interactions left ran %d rounds, want 300", nw.Rounds()-1000)
	}
}

// TestSchedulers checks every registered scheduler: valid in-range
// distinct ordered pairs, topology-specific shape, and seed
// determinism.
func TestSchedulers(t *testing.T) {
	const n = 20
	for _, name := range Schedulers() {
		t.Run(name, func(t *testing.T) {
			s, err := NewScheduler(name, n, 0, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name() != name {
				t.Fatalf("Name() = %q, want %q", s.Name(), name)
			}
			uf := newUnionFind(n)
			for round := 0; round < 200; round++ {
				contacts := s.Contacts(nil)
				if len(contacts) != DefaultContacts(n) {
					t.Fatalf("round %d emitted %d contacts, want %d", round, len(contacts), DefaultContacts(n))
				}
				for _, c := range contacts {
					a, b := int(c[0]), int(c[1])
					if a == b || a < 0 || b < 0 || a >= n || b >= n {
						t.Fatalf("invalid contact (%d, %d)", a, b)
					}
					uf.union(a, b)
					switch name {
					case Ring:
						if d := (a - b + n) % n; d != 1 && d != n-1 {
							t.Fatalf("ring contact (%d, %d) is not a cycle edge", a, b)
						}
					case Star:
						if a != 0 && b != 0 {
							t.Fatalf("star contact (%d, %d) misses the center", a, b)
						}
					case PingPong:
						if a > 1 || b > 1 {
							t.Fatalf("ping-pong contact (%d, %d) involves agents beyond {0, 1}", a, b)
						}
					}
				}
			}
			// Every topology except ping-pong must connect the whole
			// population (ping-pong deliberately isolates agents >= 2).
			if name != PingPong && uf.components() != 1 {
				t.Fatalf("%s contact graph has %d components after 200 rounds", name, uf.components())
			}

			a, _ := NewScheduler(name, n, 0, testSeed)
			b, _ := NewScheduler(name, n, 0, testSeed)
			for round := 0; round < 5; round++ {
				if ca, cb := a.Contacts(nil), b.Contacts(nil); !reflect.DeepEqual(ca, cb) {
					t.Fatalf("same seed produced different schedules in round %d", round)
				}
			}
		})
	}

	if _, err := NewScheduler("no-such-topology", n, 0, testSeed); err == nil {
		t.Fatal("unknown scheduler name did not error")
	}
}

type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

func (u *unionFind) components() int {
	c := 0
	for i := range u.parent {
		if u.find(i) == i {
			c++
		}
	}
	return c
}

// TestFaultsValidate covers the fault-model input validation.
func TestFaultsValidate(t *testing.T) {
	for _, bad := range []Faults{
		{Drop: -0.1}, {Drop: 1.1}, {Dup: 2}, {Reorder: -1}, {DelayMax: -3},
		{Drop: math.NaN()}, {Dup: math.NaN()}, {Reorder: math.NaN()},
		{DelayMax: math.MaxInt}, {DelayMax: MaxDelay + 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Faults %+v validated", bad)
		}
	}
	if err := (Faults{Drop: 1, Dup: 1, DelayMax: MaxDelay, Reorder: 1}).Validate(); err != nil {
		t.Fatalf("extreme but legal Faults rejected: %v", err)
	}
	if !(Faults{}).None() {
		t.Fatal("zero Faults is not None")
	}
}
