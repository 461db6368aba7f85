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
// n agents must allocate at least DescCondBytes, per-agent arrays
// included, and at most the allocator's rounding beside it. The least
// of three measurements discounts what other goroutines allocate.
func TestDescCondBytes(t *testing.T) {
	const n = 1 << 15
	checkCondBytes(t, stable.Describe(), n)
	checkCondBytes(t, core.Describe(), n)
	checkCondBytes(t, cai.Describe(), n)
	checkCondBytes(t, aware.Describe(), n)
	checkCondBytes(t, interval.Describe(1), n)
	checkCondBytes(t, sudo.Describe(sudo.DefaultTimeoutFactor), n)
}

func checkCondBytes[S any, P any](t *testing.T, d proto.Descriptor[S, P], n int) {
	t.Helper()
	p := d.New(n)
	states := d.Init(p, d.Inits[0], rng.New(1))
	want := uint64(sim.DescCondBytes(d, p, n))
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim.DescCond(d, p).Init(states)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least < want || least > want+16<<10 {
		t.Errorf("%s: the tracker of %d agents allocated %d B, charged %d B", d.Name, n, least, want)
	}
}
