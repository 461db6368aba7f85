package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"unsafe"
)

// Agent images: how the delta and record paths ship agent states. An
// image is the state's own memory — every integer and bool field at its
// Go offset in host byte order, padding bytes zero — so encoding is a
// copy plus a few zeroed bytes, and decoding is a check of the bool and
// padding bytes plus a copy. Only fixed-width integer fields, bools
// and structs of them have such an image; the layout is derived once
// per state type when a runtime or coordinator is built, and its
// fingerprint (byte order included) travels in the Assign header so
// processes that would read each other's images differently never
// share a run. Assign slabs and checkpoints keep the descriptor's
// varint codec (proto.Descriptor.WriteSlab).

// layout is the image layout of one agent state type.
type layout struct {
	size        int
	bools       []int // offsets of bool bytes: 0 or 1 in a valid image
	pads        []int // offsets of padding bytes: 0 in a valid image
	fingerprint uint64

	// zero holds the same rule as bools and pads, as the bits that
	// must be clear in the image's little-endian words: a padding byte
	// contributes 0xff, a bool byte 0xfe. Images of 8 bytes or more
	// are covered by 8-byte words (the last one overlapping its
	// predecessor when the size is not a multiple of 8), smaller ones
	// by single bytes; words with nothing to check are left out.
	zero []zeroMask
}

// zeroMask is one word of an image check: the word of width 8 (or 1)
// at offset off must have no bit of mask set.
type zeroMask struct {
	off  int
	wide bool
	mask uint64
}

// newLayout derives S's image layout. Any field that is not a
// fixed-width integer, a bool or a struct of them is an error.
func newLayout[S any]() (*layout, error) {
	t := reflect.TypeFor[S]()
	l := &layout{size: int(t.Size())}
	h := fnv.New64a()
	order := "le"
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		order = "be"
	}
	fmt.Fprintf(h, "%s %d", order, l.size)
	used := make([]bool, l.size)
	if err := l.walk(t, 0, used, h); err != nil {
		return nil, fmt.Errorf("dist: agent state %v has no fixed-width image: %w", t, err)
	}
	for off, u := range used {
		if !u {
			l.pads = append(l.pads, off)
		}
	}
	l.fingerprint = h.Sum64()
	must := make([]byte, l.size) // per byte, the bits that must be clear
	for _, o := range l.bools {
		must[o] = 0xfe
	}
	for _, o := range l.pads {
		must[o] = 0xff
	}
	if l.size < 8 {
		for off, m := range must {
			if m != 0 {
				l.zero = append(l.zero, zeroMask{off: off, mask: uint64(m)})
			}
		}
		return l, nil
	}
	for off := 0; off < l.size; off += 8 {
		off = min(off, l.size-8)
		if m := binary.LittleEndian.Uint64(must[off:]); m != 0 {
			l.zero = append(l.zero, zeroMask{off: off, wide: true, mask: m})
		}
	}
	return l, nil
}

// walk records the field of type t at offset off: its bytes as used,
// its offset and kind in the fingerprint, a bool's offset in l.bools.
func (l *layout) walk(t reflect.Type, off int, used []bool, h io.Writer) error {
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
		l.bools = append(l.bools, off)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	default:
		return fmt.Errorf("kind %v", t.Kind())
	}
	for i := range int(t.Size()) {
		used[off+i] = true
	}
	fmt.Fprintf(h, " %d:%v", off, t.Kind())
	return nil
}

// valid reports whether an image is valid: bools 0 or 1, padding 0.
// Every valid image is the image of exactly one state, which
// re-encodes to it.
func (l *layout) valid(img []byte) bool {
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

// why says what is wrong with an image valid rejected.
func (l *layout) why(img []byte) error {
	for _, o := range l.bools {
		if img[o] > 1 {
			return fmt.Errorf("dist: agent image has bool byte %d at offset %d", img[o], o)
		}
	}
	for _, o := range l.pads {
		if img[o] != 0 {
			return fmt.Errorf("dist: agent image has padding byte %d at offset %d", img[o], o)
		}
	}
	panic("dist: image masks disagree with the layout")
}

// putImage writes s's image into dst[:l.size]. Go does not promise
// that a value's padding bytes are zero in memory, so they are cleared
// here rather than copied.
func putImage[S any](l *layout, dst []byte, s *S) {
	copy(dst[:l.size], unsafe.Slice((*byte)(unsafe.Pointer(s)), l.size))
	for _, o := range l.pads {
		dst[o] = 0
	}
}

// loadImage copies a checked image into s.
func loadImage[S any](s *S, img []byte) {
	copy(unsafe.Slice((*byte)(unsafe.Pointer(s)), len(img)), img)
}
