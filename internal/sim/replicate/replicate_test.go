package replicate

import (
	"runtime"
	"sync/atomic"
	"testing"

	"ssrank/internal/rng"
)

func TestSeedDependsOnlyOnRootAndTrial(t *testing.T) {
	a, b := Seed(42, 7), Seed(42, 7)
	if a != b {
		t.Fatalf("Seed not deterministic: %d != %d", a, b)
	}
	if Seed(42, 7) == Seed(42, 8) || Seed(42, 7) == Seed(43, 7) {
		t.Fatal("distinct (root, trial) pairs collided")
	}
}

func TestSeedAvalanche(t *testing.T) {
	// Adjacent trials must not produce near-identical seeds: over 64
	// consecutive trials every seed must be distinct and the low bits
	// must not be constant.
	seen := map[uint64]bool{}
	var orLow uint64
	for i := 0; i < 64; i++ {
		s := Seed(5, i)
		if seen[s] {
			t.Fatalf("duplicate seed at trial %d", i)
		}
		seen[s] = true
		orLow |= s & 0xff
	}
	if orLow != 0xff {
		t.Fatalf("low seed bits not well mixed: OR = %#x", orLow)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers(0, 100) = %d, want GOMAXPROCS", got)
	}
	if got := workers(8, 3); got != 3 {
		t.Fatalf("workers(8, 3) = %d, want clamp to trials", got)
	}
	if got := workers(-1, 0); got != 1 {
		t.Fatalf("workers(-1, 0) = %d, want 1", got)
	}
}

// TestReplicateOrderAndDeterminism pins the seed contract: trial i
// runs with Seed(root, i) and lands at index i, at every worker count
// (a forced pool interleaves even on one core).
func TestReplicateOrderAndDeterminism(t *testing.T) {
	run := func(trial int, seed uint64) [2]uint64 {
		return [2]uint64{uint64(trial), rng.New(seed).Uint64()}
	}
	for _, workers := range []int{1, 4, 16} {
		got := ReplicateStream(Stream[[2]uint64]{Workers: workers, Trials: 48, Root: 11}, run)
		if len(got) != 48 {
			t.Fatalf("workers=%d: %d results, want 48", workers, len(got))
		}
		for i := range got {
			if got[i] != run(i, Seed(11, i)) {
				t.Fatalf("workers=%d trial %d: %v, want %v", workers, i, got[i], run(i, Seed(11, i)))
			}
		}
	}
}

func TestReplicateRunsEveryTrialOnce(t *testing.T) {
	var calls [40]atomic.Int32
	ReplicateStream(Stream[struct{}]{Workers: 4, Trials: 40, Root: 1}, func(trial int, _ uint64) struct{} {
		calls[trial].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("trial %d ran %d times", i, c)
		}
	}
}

func TestReplicateEmpty(t *testing.T) {
	if got := ReplicateStream(Stream[int]{Workers: 4, Trials: -1, Root: 1},
		func(int, uint64) int { return 1 }); got != nil {
		t.Fatalf("stream with -1 trials = %v, want nil", got)
	}
}

// BenchmarkReplicateOverhead measures the engine alone — seed
// derivation, worker pool and ordered commit — on trials that do no
// work.
func BenchmarkReplicateOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ReplicateStream(Stream[uint64]{Trials: 64, Root: uint64(i)}, func(_ int, seed uint64) uint64 { return seed })
	}
}
