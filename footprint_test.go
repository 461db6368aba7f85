package ssrank

import (
	"errors"
	"runtime"
	"testing"

	"ssrank/internal/sim/shard"
)

// TestRunFootprint bounds what a large sharded Run allocates: one
// agent slab of 8-byte StableRanking states, the exact stop's
// per-agent tracker and the Result's ranks, 8 bytes each, and at most
// 1 MiB beside them. A wider state, or a second population of the
// slab, fails here rather than only in the benchmark's peak RSS. The
// least of three measurements discounts what other goroutines
// allocate.
func TestRunFootprint(t *testing.T) {
	const n, agentBytes = 1 << 18, 8
	d, _ := Describe(StableRanking)
	if d.AgentBytes != agentBytes {
		t.Fatalf("StableRanking agents take %d B, want %d", d.AgentBytes, agentBytes)
	}
	cfg := Config{N: n, Protocol: StableRanking, Seed: 3, Shards: 4, MaxInteractions: int64(shard.BatchPeriod(n))}
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); !errors.Is(err, ErrNotConverged) {
			t.Fatalf("Run: %v, want an exhausted budget", err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if bound := uint64(n*(agentBytes+8+8) + 1<<20); least > bound {
		t.Fatalf("a %d-agent sharded Run allocated %d B, more than the %d B of one slab, tracker and ranks", n, least, bound)
	}
}
