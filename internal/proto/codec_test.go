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
// the image is the struct's memory, its bools and its two padding
// bytes located by offset.
func TestLayoutStable(t *testing.T) {
	l := proto.LayoutOf[stable.State]()
	if l.Size != 24 {
		t.Errorf("size %d, want 24", l.Size)
	}
	if want := []int{16, 17}; !slices.Equal(l.Bools, want) {
		t.Errorf("bool offsets %v, want %v", l.Bools, want)
	}
	if want := []int{2, 3}; !slices.Equal(l.Pads, want) {
		t.Errorf("padding offsets %v, want %v", l.Pads, want)
	}
	// Padding bytes that are not zero in memory are cleared, not
	// shipped.
	s := stable.State{Mode: 1, IsLeader: true, Alive: 5}
	for _, o := range l.Pads {
		unsafe.Slice((*byte)(unsafe.Pointer(&s)), l.Size)[o] = 0xaa
	}
	img := make([]byte, l.Size)
	proto.PutImage(l, img, &s)
	if !l.Valid(img) {
		t.Errorf("image % x of a state with dirty padding is invalid", img)
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
		{"stable Mode (uint8)", func(b []byte) error { return readSlab(st, b) }, 12, 0,
			func(w *ckpt.Writer) { w.Uvarint(256) }, func(w *ckpt.Writer) { w.Uvarint(255) }, "field value 256 "},
		{"core LE.Level (int16)", func(b []byte) error { return readSlab(co, b) }, 14, 7,
			func(w *ckpt.Writer) { w.Varint(1 << 15) }, func(w *ckpt.Writer) { w.Varint(-1 << 15) }, "field value 32768 "},
		{"sudo Leader (bool)", func(b []byte) error { return readSlab(su, b) }, 2, 0,
			func(w *ckpt.Writer) { w.Raw([]byte{2}) }, func(w *ckpt.Writer) { w.Bool(true) }, "field value 2 "},
		// 2¹⁵ is a valid varint but no int16: refused, not truncated,
		// and named as 32768, not as its zigzag code 65536 (the
		// stable_counter_overflow checkpoint fuzz seed).
		{"stable Alive (int16)", func(b []byte) error { return readSlab(st, b) }, 12, 11,
			func(w *ckpt.Writer) { w.Varint(1 << 15) }, func(w *ckpt.Writer) { w.Varint(1<<15 - 1) }, "field value 32768 "},
		{"stable Alive (negative int16)", func(b []byte) error { return readSlab(st, b) }, 12, 11,
			func(w *ckpt.Writer) { w.Varint(-1<<15 - 1) }, func(w *ckpt.Writer) { w.Varint(-1 << 15) }, "field value -32769 "},
		{"stable Rank (overlong varint)", func(b []byte) error { return readSlab(st, b) }, 12, 2,
			func(w *ckpt.Writer) { w.Raw([]byte{0x80, 0x00}) }, func(w *ckpt.Writer) { w.Varint(-1 << 31) }, "overlong"},
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
