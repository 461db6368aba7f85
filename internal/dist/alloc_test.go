package dist

import (
	"net"
	goruntime "runtime"
	"testing"

	"ssrank/internal/rng"
	"ssrank/internal/sim/shard"
	"ssrank/internal/stable"
)

// startFleet connects p in-process workers over loopback TCP and
// returns the coordinator-side connections; the workers exit when the
// test closes them.
func startFleet(t *testing.T, p int) []net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	conns := make([]net.Conn, p)
	done := make(chan struct{}, p)
	for i := range conns {
		wc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if conns[i], err = ln.Accept(); err != nil {
			t.Fatalf("accept: %v", err)
		}
		go func() {
			Serve(wc, func(*AssignHeader) (Runtime, error) { return NewRuntime(stable.Describe()), nil })
			wc.Close()
			done <- struct{}{}
		}()
	}
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
		for range conns {
			<-done
		}
	})
	return conns
}

// TestWireAllocsPerBatch: in steady state the delta exchange
// allocates nothing per frame. Coordinator and workers (in-process
// goroutines here, so one MemStats covers both) together stay under a
// small constant per batch, the same at a batch period of 1024 and of
// 16384 interactions, with and without touch records.
func TestWireAllocsPerBatch(t *testing.T) {
	const warm, batches = 4, 16
	// A few small per-frame decoders and the barrier's instrumentation
	// vector remain; a frame buffer of the smaller batch alone would
	// exceed maxBytes.
	const maxBytes, maxAllocs = 16 << 10, 64
	for _, n := range []int{1 << 11, 1 << 15} {
		for _, track := range []bool{false, true} {
			d := stable.Describe()
			p := d.New(n)
			init := d.Init(p, "random", rng.New(3))
			id := RunID{Protocol: "stable", Init: "random", N: n, Seed: 3, Epsilon: 1, Shards: 4}
			co, err := NewCoordinator(d, p, init, id, startFleet(t, 2), Options{})
			if err != nil {
				t.Fatal(err)
			}
			b := shard.BatchPeriod(n)
			emit := func([]shard.TouchRec[stable.State]) {}
			for range warm {
				if err := co.ExecBatch(b, track, emit); err != nil {
					t.Fatal(err)
				}
			}
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			for range batches {
				if err := co.ExecBatch(b, track, emit); err != nil {
					t.Fatal(err)
				}
			}
			goruntime.ReadMemStats(&after)
			co.Stop()
			bytes := (after.TotalAlloc - before.TotalAlloc) / batches
			allocs := (after.Mallocs - before.Mallocs) / batches
			t.Logf("n=%d batch=%d track=%v: %d B and %d allocations per batch", n, b, track, bytes, allocs)
			if bytes > maxBytes || allocs > maxAllocs {
				t.Errorf("n=%d batch=%d track=%v: %d B in %d allocations per batch, want at most %d B in %d",
					n, b, track, bytes, allocs, maxBytes, maxAllocs)
			}
		}
	}
}
