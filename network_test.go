package ssrank

import (
	"errors"
	"reflect"
	"testing"
)

// TestRunMessageNetworkAllProtocols drives every registered protocol
// through the message-network path on the uniform topology, fault
// free. Rendezvous semantics make the fault-free network a
// sequentially consistent execution of the standard model, so every
// protocol — including the non-self-stabilizing ones — must converge,
// with zero per-protocol scheduling code.
func TestRunMessageNetworkAllProtocols(t *testing.T) {
	for _, p := range Protocols() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res, err := Run(Config{N: 16, Protocol: p, Seed: 5, Scheduler: SchedulerUniform})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("Converged false without error")
			}
			if res.Exact {
				t.Fatal("message-network run reported an exact hitting time (stops are round-polled)")
			}
			if res.Rounds <= 0 {
				t.Fatal("message-network run reported no rounds")
			}
			if res.Interactions <= 0 {
				t.Fatal("no interactions recorded")
			}
		})
	}
}

// TestRunSparseTopologyNoConvergence pins the model-level finding the
// sparse schedulers exist to expose: the paper's ranking protocols
// resolve rank conflicts by direct meetings, so on a ring two
// conflicting agents that are not neighbors can never notice each
// other — the run must exhaust its budget, deterministically.
func TestRunSparseTopologyNoConvergence(t *testing.T) {
	cfg := Config{
		N: 16, Protocol: StableRanking, Seed: 3,
		Scheduler: SchedulerRing, MaxInteractions: 100_000,
	}
	ref, err := Run(cfg)
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("stable converged on a ring? err = %v", err)
	}
	if ref.Converged || ref.Rounds <= 0 {
		t.Fatalf("unexpected result on the ring: %+v", ref)
	}
	c := cfg
	c.ShardWorkers = 8
	got, _ := Run(c)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("ring run depends on ShardWorkers")
	}
}

// TestRunMessageNetworkFaulty locks a faulty-run contract end to end:
// the flagship protocol converges under drops, duplicates, delays and
// reordering, the result is a valid ranking, and Rounds is populated.
func TestRunMessageNetworkFaulty(t *testing.T) {
	res, err := Run(Config{
		N: 24, Protocol: StableRanking, Seed: 11,
		Faults: Faults{DropProb: 0.05, DupProb: 0.05, DelayMax: 3, ReorderProb: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !isPermutation(res.Ranks, 24) {
		t.Fatalf("ranks not a permutation under faults: %v", res.Ranks)
	}
	if res.Rounds <= 0 || res.Exact {
		t.Fatalf("Rounds = %d, Exact = %v on a faulty run", res.Rounds, res.Exact)
	}
}

// TestRunMessageNetworkDeterministic locks the facade-level
// determinism contract: identical Configs produce identical Results
// at any ShardWorkers setting.
func TestRunMessageNetworkDeterministic(t *testing.T) {
	cfg := Config{
		N: 48, Protocol: StableRanking, Seed: 7,
		Faults: Faults{DropProb: 0.1, DelayMax: 2},
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		c := cfg
		c.ShardWorkers = workers
		got, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("message-network Result depends on ShardWorkers=%d:\n%+v\nvs\n%+v", workers, got, ref)
		}
	}
}

// TestRunSchedulerValidation covers the new Config knobs' vetting.
func TestRunSchedulerValidation(t *testing.T) {
	if _, err := Run(Config{N: 8, Scheduler: "torus"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := Run(Config{N: 8, Faults: Faults{DropProb: 1.5}}); err == nil {
		t.Fatal("out-of-range DropProb accepted")
	}
	if _, err := Run(Config{N: 8, Faults: Faults{DelayMax: -1}}); err == nil {
		t.Fatal("negative DelayMax accepted")
	}
	if got := Schedulers(); len(got) != 6 {
		t.Fatalf("Schedulers() = %v, want 6 topologies", got)
	}
}

// TestSimulationMessageNetwork exercises the stepwise driver on the
// message network: stepping advances interactions, snapshots project
// through the descriptor, and the run stabilizes.
func TestSimulationMessageNetwork(t *testing.T) {
	sim, err := NewSimulation(Config{
		N: 16, Protocol: StableRanking, Seed: 3,
		Faults: Faults{DropProb: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(50)
	if sim.Interactions() == 0 {
		t.Fatal("Step delivered no interactions through the message network")
	}
	snap := sim.Snapshot()
	if snap.Interactions != sim.Interactions() || len(snap.Ranks) != 16 {
		t.Fatalf("inconsistent snapshot: %+v", snap)
	}
	if !sim.RunUntilStable(0) {
		t.Fatal("did not stabilize within the default budget")
	}
	if !isPermutation(sim.Ranks(), 16) {
		t.Fatalf("ranks not a permutation: %v", sim.Ranks())
	}

	calls := 0
	sim2, err := NewSimulation(Config{N: 16, Protocol: StableRanking, Seed: 4, Scheduler: SchedulerUniform})
	if err != nil {
		t.Fatal(err)
	}
	if !sim2.Observe(0, 0, func(Snapshot) { calls++ }) {
		t.Fatal("Observe did not stabilize")
	}
	if calls < 2 {
		t.Fatalf("Observe invoked the callback %d times, want at least start and end", calls)
	}
}

// TestSimulationSwapDuplicate covers the two promoted transient-fault
// primitives on both engine paths.
func TestSimulationSwapDuplicate(t *testing.T) {
	for _, cfg := range []Config{
		{N: 32, Protocol: StableRanking, Seed: 9},
		{N: 32, Protocol: StableRanking, Seed: 9, Scheduler: SchedulerUniform},
	} {
		name := "serial"
		if cfg.messageNetwork() {
			name = "msgnet"
		}
		t.Run(name, func(t *testing.T) {
			sim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sim.RunUntilStable(0) {
				t.Fatal("did not stabilize")
			}

			// Swap preserves the multiset: the ranking stays valid.
			before := append([]int(nil), sim.Ranks()...)
			if err := sim.Swap(8); err != nil {
				t.Fatal(err)
			}
			if !sim.Stable() {
				t.Fatal("swap broke stability — it must preserve the state multiset")
			}
			if reflect.DeepEqual(sim.Ranks(), before) {
				t.Fatal("swapping 8 pairs left every rank in place")
			}
			if err := sim.Swap(17); err == nil {
				t.Fatal("swapping 17 pairs among 32 agents accepted")
			}
			if err := sim.Swap(-1); err == nil {
				t.Fatal("negative swap count accepted")
			}

			// Duplicate creates a duplicate rank; the protocol recovers.
			src, dst, err := sim.Duplicate()
			if err != nil {
				t.Fatal(err)
			}
			if src == dst || sim.Ranks()[src] != sim.Ranks()[dst] {
				t.Fatalf("Duplicate(%d → %d) did not copy the state", src, dst)
			}
			if !sim.RunUntilStable(0) {
				t.Fatal("did not re-stabilize after Duplicate")
			}
			if !isPermutation(sim.Ranks(), 32) {
				t.Fatalf("ranks not a permutation after recovery: %v", sim.Ranks())
			}
		})
	}
}

// TestDuplicateGated asserts Duplicate refuses non-self-stabilizing
// protocols, mirroring Corrupt.
func TestDuplicateGated(t *testing.T) {
	sim, err := NewSimulation(Config{N: 16, Protocol: SpaceEfficient, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Duplicate(); err == nil {
		t.Fatal("Duplicate accepted a non-self-stabilizing protocol")
	}
	// Swap is multiset-preserving and allowed everywhere.
	if err := sim.Swap(4); err != nil {
		t.Fatal(err)
	}
}

// TestMessageNetworkObserveRoundBackstop pins the Observe round-cap
// fix: the backstop must be derived from the *remaining* interaction
// budget, not the absolute one. Under DropProb 1 a round delivers
// nothing, so a simulation can burn far more rounds than maxSteps
// before Observe is called — the buggy absolute cap then returned
// immediately, observing nothing. It also pins Snapshot.Rounds: the
// round counter on the message network, 0 on the in-place engines.
func TestMessageNetworkObserveRoundBackstop(t *testing.T) {
	s, err := NewSimulation(Config{
		N: 16, Protocol: StableRanking, Seed: 2,
		Faults: Faults{DropProb: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(500) // 500 rounds, zero interactions delivered
	if s.Interactions() != 0 {
		t.Fatalf("Drop=1 network delivered %d interactions", s.Interactions())
	}
	start := s.Snapshot().Rounds
	if start < 500 {
		t.Fatalf("Snapshot.Rounds = %d after 500 starved rounds", start)
	}
	var last Snapshot
	s.Observe(0, 200, func(snap Snapshot) { last = snap })
	if got := s.Snapshot().Rounds - start; got != 200 {
		t.Fatalf("Observe ran %d rounds, want 200 (the remaining interaction budget)", got)
	}
	if last.Rounds != start+200 {
		t.Fatalf("final observation carries Rounds=%d, want %d", last.Rounds, start+200)
	}

	serial, err := NewSimulation(Config{N: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	serial.Step(100)
	if r := serial.Snapshot().Rounds; r != 0 {
		t.Fatalf("in-place engine reported Snapshot.Rounds = %d, want 0", r)
	}
}

// TestMessageNetworkSlicedRunProgresses pins the round backstop of a
// sliced run: every RunUntilStable(target) call may execute as many
// rounds as its remaining interaction budget, however many rounds
// earlier calls burned. With an absolute backstop a lossy network
// stopped executing rounds once the round counter passed the target,
// and a slice loop (a job service's) spun without progress.
func TestMessageNetworkSlicedRunProgresses(t *testing.T) {
	s, err := NewSimulation(Config{N: 16, Seed: 3, Faults: Faults{DropProb: 0.97}})
	if err != nil {
		t.Fatal(err)
	}
	const slice = 64
	for call := 0; call < 8; call++ {
		steps, rounds := s.Interactions(), s.Snapshot().Rounds
		if s.RunUntilStable(steps + slice) {
			return
		}
		if ran := s.Snapshot().Rounds - rounds; s.Interactions() < steps+slice && ran != slice {
			t.Fatalf("call %d: %d -> %d interactions in %d rounds, want %d interactions or %d rounds",
				call, steps, s.Interactions(), ran, steps+slice, slice)
		}
	}
}

// TestMessageNetworkBudget asserts a starved network reports
// ErrNotConverged instead of spinning (the round backstop).
func TestMessageNetworkBudget(t *testing.T) {
	res, err := Run(Config{
		N: 16, Protocol: StableRanking, Seed: 1,
		Faults: Faults{DropProb: 1}, MaxInteractions: 200,
	})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	if res.Converged || res.Interactions != 0 {
		t.Fatalf("a Drop=1 network converged? %+v", res)
	}
}
