package dist

import (
	"encoding/binary"
	"reflect"
	goruntime "runtime"
	"slices"
	"testing"

	"ssrank/internal/baseline/aware"
	"ssrank/internal/ckpt"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/sim/shard"
	"ssrank/internal/stable"
)

// imageFixture is a population of n random states of d's protocol and
// a valid delta section of k of them.
func imageFixture[S, P any](d proto.Descriptor[S, P], n, k int) (*proto.Layout, []S, []int32, []byte) {
	l := proto.LayoutOf[S]()
	states := d.Init(d.New(n), "random", rng.New(5))
	idxs := make([]int32, k)
	for i := range idxs {
		idxs[i] = int32(i * (n / k))
	}
	var w ckpt.Writer
	appendDeltaSection(l, &w, states, idxs)
	return l, states, idxs, w.Bytes()
}

// TestDeltaSectionRoundTrip: a section applied to a blank slab
// restores exactly the encoded agents.
func TestDeltaSectionRoundTrip(t *testing.T) {
	const n, k = 256, 16
	l, states, idxs, section := imageFixture(stable.Describe(), n, k)
	entries, err := readDeltaSection(l, n, ckpt.NewReader(section))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]stable.State, n)
	applyDeltas(l, got, entries)
	for _, i := range idxs {
		if got[i] != states[i] {
			t.Fatalf("agent %d: got %v, want %v", i, got[i], states[i])
		}
	}
}

// TestImageDecodeRejects: each malformed delta or record section is
// rejected by the shared validation and by the worker's ApplyDeltas,
// without panicking and without allocating more than the section's own
// size. StableRanking's image has no bool or padding byte, so Aware's,
// which has both, covers those rejections.
func TestImageDecodeRejects(t *testing.T) {
	t.Run("stable", func(t *testing.T) { testImageDecodeRejects(t, stable.Describe()) })
	t.Run("aware", func(t *testing.T) { testImageDecodeRejects(t, aware.Describe()) })
}

func testImageDecodeRejects[S any, P sim.TouchReporter[S]](t *testing.T, d proto.Descriptor[S, P]) {
	// A rejection builds one error value, which takes up to about
	// 0.9 KB under -race, so k and the record count keep both sections
	// above 1.4 KB for 8-byte agents, the size they had with 24-byte
	// ones; the allocation bound below stays the section's own size.
	const n, k, b = 256, 150, 128
	l, states, _, section := imageFixture(d, n, k)
	e := 4 + l.Size
	head := len(section) - k*e // the count's varint
	entry := func(s []byte, j int) []byte { return s[head+j*e : head+(j+1)*e] }

	recs := make([]shard.TouchRec[S], 51)
	for j := range recs {
		a, bj := int32(3*j), int32(3*j+1)
		recs[j] = shard.TouchRec[S]{Pos: int32(2 * j), Mask: uint8(j % 4), A: a, B: bj, SA: states[a], SB: states[bj]}
	}
	var rw ckpt.Writer
	appendRecSection(l, &rw, recs)
	recSection := rw.Bytes()
	re := recHeader + 2*l.Size

	type mutation struct {
		name   string
		record bool
		mutate func(s []byte) []byte
	}
	cases := []mutation{
		{"index equals n", false, func(s []byte) []byte {
			binary.LittleEndian.PutUint32(entry(s, 3), n)
			return s
		}},
		{"index near 2^32", false, func(s []byte) []byte {
			binary.LittleEndian.PutUint32(entry(s, 0), 1<<32-1)
			return s
		}},
		{"truncated entry", false, func(s []byte) []byte { return s[:len(s)-1] }},
		{"count beyond section", false, func(s []byte) []byte {
			return append(binary.AppendUvarint(nil, k+1), s[head:]...)
		}},
		{"count of 2^40", false, func(s []byte) []byte {
			return append(binary.AppendUvarint(nil, 1<<40), s[head:]...)
		}},
		{"record position beyond batch", true, func(s []byte) []byte {
			binary.LittleEndian.PutUint32(s[1:], b)
			return s
		}},
		{"record mask 4", true, func(s []byte) []byte {
			s[1+re+12] = 4
			return s
		}},
		{"record index equals n", true, func(s []byte) []byte {
			binary.LittleEndian.PutUint32(s[1+8:], n)
			return s
		}},
		{"record count beyond section", true, func(s []byte) []byte {
			s[0] = byte(len(recs) + 1)
			return s
		}},
	}
	if len(l.Bools) > 0 {
		cases = append(cases,
			mutation{"bool byte 2", false, func(s []byte) []byte {
				entry(s, 5)[4+l.Bools[len(l.Bools)-1]] = 2
				return s
			}},
			mutation{"record post-state bool byte 2", true, func(s []byte) []byte {
				s[1+re+recHeader+l.Size+l.Bools[0]] = 2
				return s
			}})
	}
	if len(l.Pads) > 0 {
		cases = append(cases, mutation{"nonzero padding", false, func(s []byte) []byte {
			entry(s, k-1)[4+l.Pads[0]] = 1
			return s
		}})
	}
	for _, tc := range cases {
		src := section
		if tc.record {
			src = recSection
		}
		in := tc.mutate(slices.Clone(src))
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		var err error
		if tc.record {
			_, err = readRecSection[S](l, b, n, ckpt.NewReader(in), nil)
		} else {
			_, err = readDeltaSection(l, n, ckpt.NewReader(in))
		}
		goruntime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if a := after.TotalAlloc - before.TotalAlloc; a > uint64(len(in)) {
			t.Errorf("%s: rejecting %d bytes allocated %d", tc.name, len(in), a)
		}
		if tc.record {
			continue
		}
		rt := &runtime[S, P]{lay: l, r: shard.New[S](d.New(n), slices.Clone(states), 1, 2, 1)}
		if err := rt.ApplyDeltas(ckpt.NewReader(in)); err == nil {
			t.Errorf("%s: ApplyDeltas accepted", tc.name)
		}
	}

	// The unmutated record section round-trips.
	got, err := readRecSection[S](l, b, n, ckpt.NewReader(recSection), nil)
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Errorf("record section round trip: %v, %+v", err, got)
	}
}

// BenchmarkDeltaSection times the three steps one agent delta takes on
// the wire — the worker's encode, the validation every receiver runs,
// and the copy onto a slab — for a 16384-agent StableRanking section,
// in ns per agent.
func BenchmarkDeltaSection(b *testing.B) {
	const n, k = 1 << 20, 16384
	l, states, idxs, section := imageFixture(stable.Describe(), n, k)
	perAgent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/k, "ns/agent")
	}
	b.Run("encode", func(b *testing.B) {
		var w ckpt.Writer
		for b.Loop() {
			w.Reset()
			appendDeltaSection(l, &w, states, idxs)
		}
		perAgent(b)
	})
	b.Run("validate", func(b *testing.B) {
		for b.Loop() {
			if _, err := readDeltaSection(l, n, ckpt.NewReader(section)); err != nil {
				b.Fatal(err)
			}
		}
		perAgent(b)
	})
	b.Run("apply", func(b *testing.B) {
		entries, err := readDeltaSection(l, n, ckpt.NewReader(section))
		if err != nil {
			b.Fatal(err)
		}
		slab := make([]stable.State, n)
		for b.Loop() {
			applyDeltas(l, slab, entries)
		}
		perAgent(b)
	})
}
