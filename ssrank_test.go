package ssrank

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func isPermutation(ranks []int, max int) bool {
	seen := make([]bool, max+1)
	for _, r := range ranks {
		if r < 1 || r > max || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

func TestRunAllProtocols(t *testing.T) {
	for _, proto := range Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			res, err := Run(Config{N: 64, Protocol: proto, Seed: 3})
			if err != nil {
				if proto == SpaceEfficient && errors.Is(err, ErrNotConverged) {
					t.Skip("space-efficient is correct w.h.p. only; this seed lost the leader lottery")
				}
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("Converged false without error")
			}
			if !res.Exact {
				t.Fatalf("serial run of %s did not report an exact hitting time", proto)
			}
			switch proto {
			case Loose:
				// Loose elects, it does not rank: the leader bit is the
				// only projection, and uniqueness is transient (the
				// configuration may postdate the hitting time).
				ones := 0
				for _, r := range res.Ranks {
					if r == 1 {
						ones++
					} else if r != 0 {
						t.Fatalf("loose rank outside {0, 1}: %v", res.Ranks)
					}
				}
				if ones < 1 {
					t.Fatalf("no leader flagged: %v", res.Ranks)
				}
				return
			case Interval:
				if !isPermutation(res.Ranks, 128) { // ε = 1 ⇒ range [1, 2n]
					t.Fatalf("ranks not distinct in [1, 128]: %v", res.Ranks)
				}
			default:
				if !isPermutation(res.Ranks, 64) {
					t.Fatalf("ranks not a permutation of 1..64: %v", res.Ranks)
				}
				if res.Leader < 0 || res.Ranks[res.Leader] != 1 {
					t.Fatalf("leader = %d, ranks = %v", res.Leader, res.Ranks)
				}
			}
			if res.Interactions <= 0 {
				t.Fatal("no interactions recorded")
			}
		})
	}
}

// TestRunAllInits drives every registered protocol × init combination
// through Run — the registry is the test matrix, so a protocol that
// registers a new init is covered automatically.
func TestRunAllInits(t *testing.T) {
	for _, d := range Descriptors() {
		for _, init := range d.Inits {
			d, init := d, init
			t.Run(string(d.Protocol)+"/"+string(init), func(t *testing.T) {
				res, err := Run(Config{N: 48, Protocol: d.Protocol, Init: init, Seed: 4})
				if err != nil {
					if d.Protocol == SpaceEfficient && errors.Is(err, ErrNotConverged) {
						t.Skip("w.h.p. protocol lost the leader lottery at this seed")
					}
					t.Fatal(err)
				}
				if !res.Converged || !res.Exact {
					t.Fatalf("converged=%t exact=%t", res.Converged, res.Exact)
				}
			})
		}
	}
}

func TestRunDefaultsToStable(t *testing.T) {
	res, err := Run(Config{N: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !isPermutation(res.Ranks, 32) {
		t.Fatalf("ranks: %v", res.Ranks)
	}
}

func TestRunStableInits(t *testing.T) {
	for _, init := range []Init{InitFresh, InitWorstCase, InitRandom, InitFig3} {
		res, err := Run(Config{N: 48, Seed: 9, Init: init})
		if err != nil {
			t.Fatalf("init %s: %v", init, err)
		}
		if !isPermutation(res.Ranks, 48) {
			t.Fatalf("init %s: ranks %v", init, res.Ranks)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(Config{N: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{N: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Interactions != b.Interactions || a.Resets != b.Resets {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
	for i := range a.Ranks {
		if a.Ranks[i] != b.Ranks[i] {
			t.Fatalf("rank of agent %d differs", i)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := Run(Config{N: 8, Protocol: "nope"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Run(Config{N: 8, Protocol: SpaceEfficient, Init: InitRandom}); err == nil {
		t.Fatal("non-self-stabilizing protocol accepted a random init")
	}
	if _, err := Run(Config{N: 8, Init: "nope"}); err == nil {
		t.Fatal("unknown init accepted")
	}
}

// TestRunRejectsBadEpsilonAndFaults: every ε or fault value the
// engines cannot run is an error from Run, never a panic or a hang in
// the engine. Unchecked, a negative ε panics in Interval's
// constructor, N·(1+ε) past 2³⁰ overflows its int32 identifier space,
// a NaN probability injects nothing, and DelayMax = MaxInt overflows
// the delay draw.
func TestRunRejectsBadEpsilonAndFaults(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative epsilon":          {N: 16, Protocol: Interval, Epsilon: -1},
		"NaN epsilon":               {N: 16, Protocol: Interval, Epsilon: math.NaN()},
		"infinite epsilon":          {N: 16, Protocol: Interval, Epsilon: math.Inf(1)},
		"negative infinite epsilon": {N: 16, Protocol: Interval, Epsilon: math.Inf(-1)},
		"epsilon 1e10":              {N: 16, Protocol: Interval, Epsilon: 1e10},
		"space past 2^30":           {N: 1 << 20, Protocol: Interval, Epsilon: 1100},
		"hang case":                 {N: 1 << 27, Protocol: Interval, Epsilon: 7.5},
		"negative epsilon, stable":  {N: 16, Epsilon: -1},
		"NaN DropProb":              {N: 16, Faults: Faults{DropProb: math.NaN()}},
		"NaN DupProb":               {N: 16, Faults: Faults{DupProb: math.NaN()}},
		"NaN ReorderProb":           {N: 16, Faults: Faults{ReorderProb: math.NaN()}},
		"DelayMax MaxInt":           {N: 16, Faults: Faults{DelayMax: math.MaxInt}},
		"DelayMax past 2^31-1":      {N: 16, Faults: Faults{DelayMax: math.MaxInt32 + 1}},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run(%+v) accepted", name, cfg)
		}
	}
	// The limits themselves are legal.
	for name, cfg := range map[string]Config{
		"space exactly 2^30":   {N: 2, Protocol: Interval, Epsilon: 1<<29 - 1},
		"DelayMax exactly max": {N: 16, Faults: Faults{DelayMax: math.MaxInt32}},
	} {
		if _, err := cfg.Normalized(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	res, err := Run(Config{N: 64, Seed: 1, MaxInteractions: 10})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if res.Exact {
		t.Fatal("a budget-exhausted run has no hitting time to be exact about")
	}
}

func TestDescriptors(t *testing.T) {
	ds := Descriptors()
	if len(ds) != 6 {
		t.Fatalf("registered %d protocols, want 6", len(ds))
	}
	for _, d := range ds {
		if len(d.Inits) == 0 {
			t.Fatalf("%s: empty init table", d.Protocol)
		}
		if d.Inits[0] != InitFresh {
			t.Fatalf("%s: default init %q, want fresh first", d.Protocol, d.Inits[0])
		}
		if !d.Supports(d.Inits[0]) || d.Supports("nope") {
			t.Fatalf("%s: Supports is inconsistent with Inits %v", d.Protocol, d.Inits)
		}
		if b := d.DefaultBudget(64); b <= 0 {
			t.Fatalf("%s: default budget %d at n=64", d.Protocol, b)
		}
		lookedUp, ok := Describe(d.Protocol)
		if !ok || lookedUp.Protocol != d.Protocol || len(lookedUp.Inits) != len(d.Inits) ||
			lookedUp.SelfStabilizing != d.SelfStabilizing {
			t.Fatalf("Describe(%s) does not round-trip", d.Protocol)
		}
	}
	if _, ok := Describe("nope"); ok {
		t.Fatal("Describe accepted an unknown protocol")
	}
	if got := len(Protocols()); got != len(ds) {
		t.Fatalf("Protocols() lists %d, Descriptors() %d", got, len(ds))
	}
	// Returned descriptors are the caller's own copies: mutating one
	// must not corrupt registry dispatch.
	d, _ := Describe(StableRanking)
	d.Inits[0] = "corrupted"
	d.DefaultBudget = nil
	if res, err := Run(Config{N: 16, Seed: 1}); err != nil || !res.Converged {
		t.Fatalf("mutating a Describe copy corrupted the registry: %v", err)
	}
	if fresh, _ := Describe(StableRanking); fresh.Inits[0] != InitFresh {
		t.Fatalf("registry init table corrupted: %v", fresh.Inits)
	}
}

// TestLooseRunsSharded pins the transient-stop gap closure: Loose now
// honors Config.Shards because the sharded engine evaluates the
// uniqueness tracker after every interaction of the canonical batch
// order (the barrier fold) instead of polling — a transient window
// can no longer be sailed through. The worst-case (everyone-a-leader)
// init keeps the hitting time well past the first interaction, so the
// test cannot pass vacuously, and the sharded trajectory legitimately
// differs from the serial one (different engine, same law).
func TestLooseRunsSharded(t *testing.T) {
	sharded, err := Run(Config{N: 64, Protocol: Loose, Init: InitWorstCase, Seed: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sharded.Converged || !sharded.Exact {
		t.Fatalf("loose with Shards=4: Converged=%t Exact=%t, want both true", sharded.Converged, sharded.Exact)
	}
	if sharded.Shards != 4 {
		t.Fatalf("resolved shard count %d, want 4", sharded.Shards)
	}
	if sharded.Interactions < 2 {
		t.Fatalf("worst-case loose init converged after %d interactions; the check is vacuous", sharded.Interactions)
	}
	leaders := 0
	for _, rk := range sharded.Ranks {
		if rk == 1 {
			leaders++
		}
	}
	// The engine may sit up to one batch past the (transient) hitting
	// time, so the final configuration need not have a unique leader —
	// but the everyone-a-leader start must at least have been culled.
	if leaders == len(sharded.Ranks) {
		t.Fatal("everyone still a leader after a converged sharded run")
	}
}

// TestShardedExactAllProtocols closes the exact-stopping gap at the
// facade level: with Shards set, every registered protocol must
// converge with Exact = true, report the resolved shard count, and —
// because the sharded trajectory is a pure function of (seed, shards)
// alone — return byte-identical Results at 1 and 8 workers.
func TestShardedExactAllProtocols(t *testing.T) {
	for _, proto := range Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := Config{N: 64, Protocol: proto, Seed: 3, Shards: 4, ShardWorkers: 1}
			res, err := Run(cfg)
			if err != nil {
				if proto == SpaceEfficient && errors.Is(err, ErrNotConverged) {
					t.Skip("space-efficient is correct w.h.p. only; this seed lost the leader lottery")
				}
				t.Fatal(err)
			}
			if !res.Converged || !res.Exact {
				t.Fatalf("sharded %s: Converged=%t Exact=%t, want both true", proto, res.Converged, res.Exact)
			}
			if res.Shards != 4 {
				t.Fatalf("resolved shard count %d, want 4", res.Shards)
			}
			if res.Rounds != 0 {
				t.Fatalf("in-place engine reported Rounds=%d, want 0", res.Rounds)
			}
			wide := cfg
			wide.ShardWorkers = 8
			res8, err := Run(wide)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, res8) {
				t.Fatalf("worker count changed the sharded trajectory:\n1 worker  %+v\n8 workers %+v", res, res8)
			}
		})
	}
}

// TestShardedSeedDeterminism pins that the sharded exact run is a pure
// function of the seed: same seed ⇒ byte-identical Result, different
// seed ⇒ a different trajectory (step count or ranks).
func TestShardedSeedDeterminism(t *testing.T) {
	run := func(seed uint64) Result {
		t.Helper()
		res, err := Run(Config{N: 64, Seed: seed, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different Results:\n%+v\n%+v", a, b)
	}
	c := run(8)
	if a.Interactions == c.Interactions && reflect.DeepEqual(a.Ranks, c.Ranks) {
		t.Fatal("different seeds produced an identical trajectory")
	}
}

// TestDefaultBudgetNoOverflow pins the satellite fix: budgets are
// computed in float64 and saturate at MaxInt64 instead of overflowing
// int64 arithmetic (Cai's 2000·n³ exceeds MaxInt64 near n ≈ 1.7×10⁶).
func TestDefaultBudgetNoOverflow(t *testing.T) {
	for _, p := range Protocols() {
		for _, n := range []int{2, 64, 1_700_000, 2_000_000, 1 << 31} {
			b := defaultBudget(n, p)
			if b <= 0 {
				t.Fatalf("%s: budget %d at n=%d", p, b, n)
			}
		}
		if small, large := defaultBudget(64, p), defaultBudget(1<<31, p); large < small {
			t.Fatalf("%s: budget not monotone (%d at n=64 vs %d at n=2³¹)", p, small, large)
		}
	}
	if got := defaultBudget(2_000_000, Cai); got != math.MaxInt64 {
		t.Fatalf("cai budget at n=2×10⁶ = %d, want MaxInt64 saturation", got)
	}
	// Below the saturation point the float64 product is exact.
	if got, want := defaultBudget(1000, Cai), int64(2000)*1000*1000*1000; got != want {
		t.Fatalf("cai budget at n=10³ = %d, want %d", got, want)
	}
}

func TestSimulationLifecycle(t *testing.T) {
	s, err := NewSimulation(Config{N: 48, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Protocol() != StableRanking {
		t.Fatalf("default protocol = %s", s.Protocol())
	}
	if s.N() != 48 || s.Stable() {
		t.Fatal("fresh simulation misreports")
	}
	if !s.RunUntilStable(0) {
		t.Fatal("did not stabilize")
	}
	if !s.Stable() || !isPermutation(s.Ranks(), 48) {
		t.Fatalf("ranks: %v", s.Ranks())
	}
	if s.RankedCount() != 48 {
		t.Fatalf("RankedCount = %d", s.RankedCount())
	}
	leader := s.Leader()
	if leader < 0 || s.Ranks()[leader] != 1 {
		t.Fatalf("leader = %d", leader)
	}
	if s.Interactions() <= 0 {
		t.Fatal("no interactions recorded")
	}
	snap := s.Snapshot()
	if !snap.Stable || snap.Leader != leader || snap.RankedCount != 48 ||
		snap.Interactions != s.Interactions() {
		t.Fatalf("snapshot disagrees with the live accessors: %+v", snap)
	}
}

func TestSimulationFaultRecovery(t *testing.T) {
	s, err := NewSimulation(Config{N: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilStable(0) {
		t.Fatal("did not stabilize")
	}
	if err := s.Corrupt(12); err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilStable(0) {
		t.Fatalf("did not recover; resets: %v", s.ResetBreakdown())
	}
	if !isPermutation(s.Ranks(), 48) {
		t.Fatalf("ranks after recovery: %v", s.Ranks())
	}
}

// TestSimulationGeneric exercises the protocol-generic surface the
// redesign added: a non-default protocol with a non-default init,
// fault injection through its descriptor, and cadenced observation.
func TestSimulationGeneric(t *testing.T) {
	s, err := NewSimulation(Config{N: 32, Protocol: Cai, Init: InitRandom, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	if !s.Observe(0, 0, func(sn Snapshot) { snaps = append(snaps, sn) }) {
		t.Fatal("cai did not stabilize under observation")
	}
	if len(snaps) < 2 || snaps[0].Interactions != 0 {
		t.Fatalf("observation cadence broken: %d snapshots", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Stable || !isPermutation(last.Ranks, 32) {
		t.Fatalf("final snapshot not a valid ranking: %+v", last)
	}
	if err := s.Corrupt(8); err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilStable(0) {
		t.Fatal("cai did not recover from corruption")
	}
}

// TestObserveSamplesEveryWindow pins Observe's cadence on both
// in-place engines: one snapshot at the start, one at the end of every
// window of `every` interactions, and the last at the exact hitting
// time. Windows in which no rank moved are sampled too: the probes and
// the reset count move there. Serial windows do not cut the
// trajectory, so the observed run ends on Run's Result.
func TestObserveSamplesEveryWindow(t *testing.T) {
	const n, every = 64, 64
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{N: n, Init: InitWorstCase, Seed: 1, Shards: shards}
			s, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var at []int64
			if !s.Observe(every, 0, func(sn Snapshot) { at = append(at, sn.Interactions) }) {
				t.Fatal("did not stabilize under observation")
			}
			res := s.Result()
			if !res.Exact || at[0] != 0 || at[len(at)-1] != res.Interactions {
				t.Fatalf("samples span [%d, %d], want [0, %d] (exact %v)", at[0], at[len(at)-1], res.Interactions, res.Exact)
			}
			for i := 1; i < len(at); i++ {
				gap := at[i] - at[i-1]
				if gap != every && !(i == len(at)-1 && gap > 0 && gap <= every) {
					t.Fatalf("sample %d of %d at %d follows %d: gap %d, want %d", i, len(at), at[i], at[i-1], gap, every)
				}
			}
			if shards == 1 {
				if run, _ := Run(cfg); !reflect.DeepEqual(res, run) {
					t.Fatalf("observed Result %+v, Run gives %+v", res, run)
				}
			}
		})
	}
}

func TestSimulationErrors(t *testing.T) {
	if _, err := NewSimulation(Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := NewSimulation(Config{N: 8, Protocol: "nope"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	s, _ := NewSimulation(Config{N: 8})
	if err := s.Corrupt(9); err == nil {
		t.Fatal("overlong corruption accepted")
	}
	if err := s.Corrupt(-1); err == nil {
		t.Fatal("negative corruption accepted")
	}
	// Protocols without a fault-injection primitive refuse Corrupt.
	iv, err := NewSimulation(Config{N: 8, Protocol: Interval})
	if err != nil {
		t.Fatal(err)
	}
	if err := iv.Corrupt(2); err == nil {
		t.Fatal("interval accepted corruption without a RandomState primitive")
	}
}

func TestReplicate(t *testing.T) {
	cfg := Config{N: 32, Seed: 21}
	var order []int
	rep, err := Replicate(cfg, ReplicateOptions{
		Trials:  6,
		OnTrial: func(trial, committed int, _ Result) { order = append(order, trial) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 6 || len(rep.Results) != 6 {
		t.Fatalf("committed %d/%d trials", rep.Trials, len(rep.Results))
	}
	if rep.Converged != 6 {
		t.Fatalf("converged %d/6", rep.Converged)
	}
	for i, want := range []int{0, 1, 2, 3, 4, 5} {
		if order[i] != want {
			t.Fatalf("commits out of trial order: %v", order)
		}
	}
	if rep.Interactions.N != 6 || rep.Interactions.Mean <= 0 ||
		rep.Interactions.Min > rep.Interactions.Mean || rep.Interactions.Max < rep.Interactions.Mean {
		t.Fatalf("interactions summary inconsistent: %+v", rep.Interactions)
	}
	// Workers must not change anything: the summary is a pure
	// function of (cfg, options minus Workers).
	serial, err := Replicate(cfg, ReplicateOptions{Trials: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Interactions != rep.Interactions || serial.Converged != rep.Converged {
		t.Fatalf("worker pool changed the outcome: %+v vs %+v", serial.Interactions, rep.Interactions)
	}
	for i := range serial.Results {
		if serial.Results[i].Interactions != rep.Results[i].Interactions {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
}

func TestReplicatePrecision(t *testing.T) {
	rep, err := Replicate(Config{N: 24, Seed: 5}, ReplicateOptions{Trials: 64, Precision: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials >= 64 && rep.Interactions.CI95 > 0.5*rep.Interactions.Mean {
		t.Fatalf("precision stop neither met nor hit the ceiling: %+v", rep)
	}
	if rep.Trials < 1 {
		t.Fatal("no trials committed")
	}
}

func TestReplicateErrors(t *testing.T) {
	if _, err := Replicate(Config{N: 1}, ReplicateOptions{Trials: 3}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := Replicate(Config{N: 8}, ReplicateOptions{Trials: 0}); err == nil {
		t.Fatal("Trials=0 accepted")
	}
	if _, err := Replicate(Config{N: 8}, ReplicateOptions{Trials: 3, Precision: -1}); err == nil {
		t.Fatal("negative precision accepted")
	}
}
