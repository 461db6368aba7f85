package proto

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// Agent layouts: how an agent state type's fields lie in memory. An
// agent state is a fixed-width integer, or a struct of fixed-width
// integers, bools and structs of them. One reflection walk per type
// lists its fields in declaration order, nested structs flattened, and
// both agent codecs derive from that list:
//
//   - the varint slab codec (codec.go) of checkpoints and distributed
//     Assign frames writes the fields in list order;
//   - the image of the distributed delta and record paths is the
//     state's own memory: every field at its Go offset in host byte
//     order, padding bytes zero. Encoding is a copy plus a few zeroed
//     bytes, decoding a check of the bool and padding bytes plus a
//     copy. The fingerprint (byte order included) travels in the
//     Assign header, so processes that would read each other's images
//     differently never share a run.

// Layout is the derived layout of one agent state type.
type Layout struct {
	// Size is the state's in-memory size: the length of its image and
	// the bytes one agent adds to a slab.
	Size int
	// Bools holds the offsets of bool bytes (0 or 1 in a valid image),
	// Pads those of padding bytes (0 in a valid image).
	Bools, Pads []int
	// Fingerprint hashes the byte order, the size and every field's
	// offset and kind.
	Fingerprint uint64

	fields   []field
	maxAgent int // the longest slab encoding of one agent

	// zero holds the same rule as Bools and Pads, as the bits that
	// must be clear in the image's little-endian words: a padding byte
	// contributes 0xff, a bool byte 0xfe. Images of 8 bytes or more
	// are covered by 8-byte words (the last one overlapping its
	// predecessor when the size is not a multiple of 8), smaller ones
	// by single bytes; words with nothing to check are left out.
	zero []zeroMask
}

// field is one integer or bool field of a layout.
type field struct {
	off  uintptr
	kind fieldKind
	max  uint64 // the largest slab value that fits: 1 for a bool
}

// fieldKind is a field's width and signedness; a bool is a u8 whose
// max is 1. Signed fields are zigzag-coded in a slab.
type fieldKind uint8

const (
	u8 fieldKind = iota
	u16
	u32
	u64
	i8
	i16
	i32
	i64
)

// zeroMask is one word of an image check: the word of width 8 (or 1)
// at offset off must have no bit of mask set.
type zeroMask struct {
	off  int
	wide bool
	mask uint64
}

// layouts caches each state type's layout: reflect.Type → *Layout.
var layouts sync.Map

// LayoutOf returns S's layout, derived once per type. It panics when S
// has none; the facade derives every registered state type's layout at
// registration, so such a type fails at program start.
func LayoutOf[S any]() *Layout {
	t := reflect.TypeFor[S]()
	if l, ok := layouts.Load(t); ok {
		return l.(*Layout)
	}
	l, err := newLayout(t)
	if err != nil {
		panic(err)
	}
	cached, _ := layouts.LoadOrStore(t, l)
	return cached.(*Layout)
}

// newLayout derives t's layout. Any field that is not a fixed-width
// integer, a bool or a struct of them is an error, and so is a type
// with no field at all.
func newLayout(t reflect.Type) (*Layout, error) {
	l := &Layout{Size: int(t.Size())}
	h := fnv.New64a()
	order := "le"
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		order = "be"
	}
	fmt.Fprintf(h, "%s %d", order, l.Size)
	used := make([]bool, l.Size)
	if err := l.walk(t, 0, used, h); err != nil {
		return nil, fmt.Errorf("proto: agent state %v has no layout: %w", t, err)
	}
	if len(l.fields) == 0 {
		return nil, fmt.Errorf("proto: agent state %v has no fields", t)
	}
	for off, u := range used {
		if !u {
			l.Pads = append(l.Pads, off)
		}
	}
	l.Fingerprint = h.Sum64()
	must := make([]byte, l.Size) // per byte, the bits that must be clear
	for _, o := range l.Bools {
		must[o] = 0xfe
	}
	for _, o := range l.Pads {
		must[o] = 0xff
	}
	if l.Size < 8 {
		for off, m := range must {
			if m != 0 {
				l.zero = append(l.zero, zeroMask{off: off, mask: uint64(m)})
			}
		}
		return l, nil
	}
	for off := 0; off < l.Size; off += 8 {
		off = min(off, l.Size-8)
		if m := binary.LittleEndian.Uint64(must[off:]); m != 0 {
			l.zero = append(l.zero, zeroMask{off: off, wide: true, mask: m})
		}
	}
	return l, nil
}

// walk records the field of type t at offset off: its bytes as used,
// its offset and kind in the fingerprint, its entry in the field list
// and, for a bool, its offset in l.Bools.
func (l *Layout) walk(t reflect.Type, off int, used []bool, h io.Writer) error {
	var kind fieldKind
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if err := l.walk(f.Type, off+int(f.Offset), used, h); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
		return nil
	case reflect.Bool:
		l.Bools = append(l.Bools, off)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		kind = i8
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	default:
		return fmt.Errorf("kind %v", t.Kind())
	}
	width := int(t.Size())
	kind += fieldKind(bits.TrailingZeros(uint(width)))
	f := field{off: uintptr(off), kind: kind, max: ^uint64(0) >> (64 - 8*width)}
	if t.Kind() == reflect.Bool {
		f.max = 1
	}
	l.fields = append(l.fields, f)
	l.maxAgent += (8*width + 6) / 7 // a uvarint of 8·width bits
	for i := range width {
		used[off+i] = true
	}
	fmt.Fprintf(h, " %d:%v", off, t.Kind())
	return nil
}

// Valid reports whether an image is valid: bools 0 or 1, padding 0.
// Every valid image is the image of exactly one state, which
// re-encodes to it.
func (l *Layout) Valid(img []byte) bool {
	for _, z := range l.zero {
		w := uint64(img[z.off])
		if z.wide {
			w = binary.LittleEndian.Uint64(img[z.off:])
		}
		if w&z.mask != 0 {
			return false
		}
	}
	return true
}

// Why says what is wrong with an image Valid rejected.
func (l *Layout) Why(img []byte) error {
	for _, o := range l.Bools {
		if img[o] > 1 {
			return fmt.Errorf("proto: agent image has bool byte %d at offset %d", img[o], o)
		}
	}
	for _, o := range l.Pads {
		if img[o] != 0 {
			return fmt.Errorf("proto: agent image has padding byte %d at offset %d", img[o], o)
		}
	}
	panic("proto: image masks disagree with the layout")
}

// PutImage writes s's image into dst[:l.Size]. Go does not promise
// that a value's padding bytes are zero in memory, so they are cleared
// here rather than copied.
func PutImage[S any](l *Layout, dst []byte, s *S) {
	copy(dst[:l.Size], unsafe.Slice((*byte)(unsafe.Pointer(s)), l.Size))
	for _, o := range l.Pads {
		dst[o] = 0
	}
}

// LoadImage copies a checked image into s.
func LoadImage[S any](s *S, img []byte) {
	copy(unsafe.Slice((*byte)(unsafe.Pointer(s)), len(img)), img)
}
