package proto_test

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ssrank/internal/baseline/sudo"
	"ssrank/internal/ckpt"
	"ssrank/internal/core"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/stable"
)

// TestLayoutStable pins the derived layout of StableRanking's state:
// the 8-byte tagged union {Mode u8, flags u8, a i16, b i32}, with no
// bool and no padding byte, so its image is its memory as it stands.
func TestLayoutStable(t *testing.T) {
	l := proto.LayoutOf[stable.State]()
	if l.Size != 8 {
		t.Errorf("size %d, want 8", l.Size)
	}
	if len(l.Bools) != 0 || len(l.Pads) != 0 {
		t.Errorf("bool offsets %v and padding offsets %v, want none", l.Bools, l.Pads)
	}
	s := stable.LEState(1, 300, 70000, true, true)
	img := make([]byte, l.Size)
	proto.PutImage(l, img, &s)
	if !l.Valid(img) || !slices.Equal(img, unsafe.Slice((*byte)(unsafe.Pointer(&s)), l.Size)) {
		t.Errorf("image % x is not the state's memory or is invalid", img)
	}
}

// slab is a one-agent slab: zero bytes (zero-valued fields) around one
// field value written by put after `before` fields, `fields` in all.
func slab(fields, before int, put func(w *ckpt.Writer)) []byte {
	var w ckpt.Writer
	w.Uvarint(1)
	w.Raw(make([]byte, before))
	put(&w)
	w.Raw(make([]byte, fields-before-1))
	return w.Bytes()
}

// readSlab decodes a one-agent slab with d's slab codec.
func readSlab[S, P any](d proto.Descriptor[S, P], b []byte) error {
	r := ckpt.NewReader(b)
	if _, err := d.ReadSlab(1, r); err != nil {
		return err
	}
	return r.Close()
}

// TestSlabRejectsFieldValues: the derived decoder rejects, per field
// kind, a value that does not fit its field (uint8, int16, bool) and an
// overlong varint, naming the value as written (a signed field's
// decoded value, not its zigzag code), and accepts the largest value
// that fits.
func TestSlabRejectsFieldValues(t *testing.T) {
	st, co, su := stable.Describe(), core.Describe(), sudo.Describe(sudo.DefaultTimeoutFactor)
	for _, tc := range []struct {
		name   string
		read   func([]byte) error
		fields int
		before int
		bad    func(w *ckpt.Writer)
		good   func(w *ckpt.Writer)
		says   string
	}{
		{"stable Mode (uint8)", func(b []byte) error { return readSlab(st, b) }, 4, 0,
			func(w *ckpt.Writer) { w.Uvarint(256) }, func(w *ckpt.Writer) { w.Uvarint(255) },
			"stable: agent 0: field value 256 does not fit the field at offset 0"},
		{"core LE.Level (int16)", func(b []byte) error { return readSlab(co, b) }, 14, 7,
			func(w *ckpt.Writer) { w.Varint(1 << 15) }, func(w *ckpt.Writer) { w.Varint(-1 << 15) }, "field value 32768 "},
		{"sudo Leader (bool)", func(b []byte) error { return readSlab(su, b) }, 2, 0,
			func(w *ckpt.Writer) { w.Raw([]byte{2}) }, func(w *ckpt.Writer) { w.Bool(true) }, "field value 2 "},
		// 2¹⁵ is a valid varint but no int16: refused, not truncated,
		// and named as 32768, not as its zigzag code 65536 (the
		// stable_counter_overflow checkpoint fuzz seed).
		{"stable a (int16)", func(b []byte) error { return readSlab(st, b) }, 4, 2,
			func(w *ckpt.Writer) { w.Varint(1 << 15) }, func(w *ckpt.Writer) { w.Varint(1<<15 - 1) },
			"stable: agent 0: field value 32768 does not fit the field at offset 2"},
		{"stable a (negative int16)", func(b []byte) error { return readSlab(st, b) }, 4, 2,
			func(w *ckpt.Writer) { w.Varint(-1<<15 - 1) }, func(w *ckpt.Writer) { w.Varint(-1 << 15) },
			"stable: agent 0: field value -32769 does not fit the field at offset 2"},
		{"stable b (int32)", func(b []byte) error { return readSlab(st, b) }, 4, 3,
			func(w *ckpt.Writer) { w.Varint(1 << 31) }, func(w *ckpt.Writer) { w.Varint(1<<31 - 1) },
			"stable: agent 0: field value 2147483648 does not fit the field at offset 4"},
		{"stable b (overlong varint)", func(b []byte) error { return readSlab(st, b) }, 4, 3,
			func(w *ckpt.Writer) { w.Raw([]byte{0x80, 0x00}) }, func(w *ckpt.Writer) { w.Varint(-1 << 31) },
			"stable: agent 0: truncated, overlong or overflowing varint"},
	} {
		if err := tc.read(slab(tc.fields, tc.before, tc.good)); err != nil {
			t.Errorf("%s: largest fitting value rejected: %v", tc.name, err)
		}
		if err := tc.read(slab(tc.fields, tc.before, tc.bad)); err == nil {
			t.Errorf("%s: value that does not fit accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.says)
		}
	}
}

// BenchmarkSlabCodec times the agent-slab codec of checkpoints and
// distributed Assign frames on 2²⁰ random StableRanking agents, in ns
// per agent.
func BenchmarkSlabCodec(b *testing.B) {
	const n = 1 << 20
	d := stable.Describe()
	states := d.Init(d.New(n), "random", rng.New(5))
	var w ckpt.Writer
	d.WriteSlab(states, &w)
	perAgent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/agent")
	}
	b.Run("encode", func(b *testing.B) {
		var w ckpt.Writer
		for b.Loop() {
			w.Reset()
			d.WriteSlab(states, &w)
		}
		perAgent(b)
	})
	b.Run("decode", func(b *testing.B) {
		for b.Loop() {
			if _, err := d.ReadSlab(n, ckpt.NewReader(w.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		perAgent(b)
	})
}
