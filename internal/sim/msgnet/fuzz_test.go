package msgnet

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// FuzzTraceUnmarshal feeds arbitrary bytes to the ssmt1 trace decoder.
// No input may panic or allocate beyond a constant plus a multiple of
// its size, and an accepted trace must marshal back to exactly the
// input: the encoding is canonical. The corpus is seeded with traces
// recorded from the heavy-fault runs the record/replay tests use and
// with the bounds probes of TestTraceUnmarshalBoundsCounts.
func FuzzTraceUnmarshal(f *testing.F) {
	for _, rounds := range []int64{0, 1, 6} {
		nw := runLossy(f, 16, rounds, lossyConfig(testSeed, 1, true))
		b, err := nw.Trace().MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(traceProbe(16, 1, 1<<26))
	f.Add(traceProbe(16, 1<<62))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzz engine can allocate on its own goroutines while an
		// input runs, so the bound is checked on the least of three
		// decodes.
		var tr Trace
		var err error
		a := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr = Trace{}
			err = tr.UnmarshalBinary(data)
			runtime.ReadMemStats(&after)
			a = min(a, after.TotalAlloc-before.TotalAlloc)
		}
		// A round takes at least two input bytes and decodes to a
		// 48-byte TraceRound, a contact two bytes to 8, a delivery one
		// byte to 8; the slack covers size-class rounding.
		if limit := uint64(4<<10 + 64*len(data)); a > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), a, limit)
		}
		if err != nil {
			return
		}
		b, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("accepted trace % x re-encodes to % x", data, b)
		}
	})
}
