package sim_test

import (
	"runtime"
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

// TestDescCondBytes checks every protocol's tracker charge against
// what its tracker allocates: building DescCond and running Init over
// n agents must allocate at most DescCondBytes plus the allocator's
// rounding, and at least its per-agent and per-rank arrays. A
// RankCond's charge also holds its worst-case spill map, which these
// starts leave empty; a StableRanking configuration that fills it is
// checked against the charge last. The least of three measurements
// discounts what other goroutines allocate.
func TestDescCondBytes(t *testing.T) {
	const n = 1 << 15
	checkCondBytes(t, stable.Describe(), n)
	checkCondBytes(t, core.Describe(), n)
	checkCondBytes(t, cai.Describe(), n)
	checkCondBytes(t, aware.Describe(), n)
	checkCondBytes(t, interval.Describe(1), n)
	checkCondBytes(t, sudo.Describe(sudo.DefaultTimeoutFactor), n)

	// The charge's worst case: every rank that can be held 255 times
	// is, so the spill map holds big/255 entries, whose tens of
	// kilobytes the allocator's rounding cannot hide.
	const big = 1 << 18
	d := stable.Describe()
	p := d.New(big)
	states := make([]stable.State, big)
	for i := range states {
		states[i] = stable.Ranked(int32(i/255 + 1))
	}
	if got, want := leastAlloc(func() { sim.DescCond(d, p).Init(states) }), uint64(sim.DescCondBytes(d, p, big)); got > want+16<<10 {
		t.Errorf("stable: the tracker of %d agents on %d ranks allocated %d B, charged %d B", big, big/255+1, got, want)
	}
}

// leastAlloc returns the least of three measurements of what f
// allocates.
func leastAlloc(f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func checkCondBytes[S any, P any](t *testing.T, d proto.Descriptor[S, P], n uint64) {
	t.Helper()
	p := d.New(int(n))
	states := d.Init(p, d.Inits[0], rng.New(1))
	want := uint64(sim.DescCondBytes(d, p, int(n)))
	arrays := want
	if d.Cond == nil {
		arrays = 4*n + n + 1 // cur, and mult over the rank space [0, n]
	}
	least := leastAlloc(func() { sim.DescCond(d, p).Init(states) })
	if least < arrays || least > want+16<<10 {
		t.Errorf("%s: the tracker of %d agents allocated %d B, charged %d B", d.Name, n, least, want)
	}
}
