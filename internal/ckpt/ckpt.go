// Package ckpt provides the binary codec shared by every layer of the
// checkpoint format: varint-framed primitives in the style of msgnet's
// Trace encoding, behind an appending Writer and a sticky-error Reader.
//
// The encoding is canonical — equal values encode to equal bytes, and
// the Reader accepts only those bytes (no zero-padded varints, no
// out-of-range narrowed integers) — so checkpoint byte-identity is
// meaningful: the golden-fixture test and the result cache both rely
// on one logical state having exactly one encoding. Field order is the serialization schema; there are no tags
// and no self-description. Evolving a format therefore means bumping
// its version byte, never reordering fields under an existing version.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer appends primitives to a growing buffer. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded buffer. The Writer retains ownership; the
// caller must copy if it keeps writing afterwards.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset empties the Writer, keeping its buffer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Raw appends b verbatim (magic strings, pre-encoded sections).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Extend appends n bytes for the caller to fill and returns them:
// fixed-width sections are written in place. The bytes are not
// cleared, so the caller must overwrite every one of them.
func (w *Writer) Extend(n int) []byte {
	w.buf = slices.Grow(w.buf, n)
	k := len(w.buf)
	w.buf = w.buf[:k+n]
	return w.buf[k:]
}

// Append hands the buffer to f, which appends to it in place and
// returns it: a codec with its own inner loop (proto's agent slab)
// writes a whole section without a call per primitive.
func (w *Writer) Append(f func([]byte) []byte) { w.buf = f(w.buf) }

// Uvarint appends v in unsigned varint encoding.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends v in zigzag varint encoding.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// U64 appends v as a fixed-width little-endian 64-bit word — used for
// generator states, where varint framing would obscure the fixed
// 256-bit layout.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// F64 appends the IEEE-754 bit pattern of v, preserving it exactly
// (NaN payloads and signed zeros included).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends v as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends v length-prefixed.
func (w *Writer) String(v string) {
	w.Uvarint(uint64(len(v)))
	w.buf = append(w.buf, v...)
}

// Reader decodes a buffer written by Writer. Decoding errors stick:
// after the first malformed read every subsequent read returns zero
// values, so decode sequences can run unguarded and check Err once.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.data) }

// Close verifies the buffer was consumed exactly and returns the first
// error of the whole decode (sticky error first, trailing bytes
// otherwise).
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("ckpt: %d trailing bytes after decode", len(r.data))
	}
	return nil
}

// fail records the first error.
func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: truncated or malformed %s", what)
	}
}

// Expect consumes len(magic) bytes and verifies they equal magic.
func (r *Reader) Expect(magic []byte) {
	if r.err != nil {
		return
	}
	if len(r.data) < len(magic) || string(r.data[:len(magic)]) != string(magic) {
		r.fail(fmt.Sprintf("header (want %q)", magic))
		return
	}
	r.data = r.data[len(magic):]
}

// Next consumes the next n bytes and returns them, aliasing the
// Reader's input (fixed-width sections are validated in place).
func (r *Reader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data) {
		r.fail(fmt.Sprintf("section (%d bytes of %d)", n, len(r.data)))
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// Rest returns the undecoded bytes without consuming them (nil after
// an error), aliasing the Reader's input: a codec with its own inner
// loop (proto's agent slab) decodes a section from them, then consumes
// it with Next.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.data
}

// Uvarint decodes an unsigned varint, rejecting zero-padded encodings
// (a final byte of 0 after a continuation byte): they decode to the
// value of a shorter one, and accepting them would map one value to
// many byte strings.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	// One-byte values are the common case.
	if len(r.data) > 0 && r.data[0] < 0x80 {
		v := uint64(r.data[0])
		r.data = r.data[1:]
		return v
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 || r.data[n-1] == 0 {
		r.fail("uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint decodes a zigzag varint (binary.Varint's mapping over
// Uvarint, so it is canonical in the same way).
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	v := int64(ux >> 1)
	if ux&1 != 0 {
		v = ^v
	}
	return v
}

// U64 decodes a fixed-width little-endian 64-bit word.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

// F64 decodes an IEEE-754 bit pattern written by Writer.F64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool decodes one byte as a boolean, rejecting values other than 0
// and 1 (canonical encodings have exactly one representation).
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.data) < 1 || r.data[0] > 1 {
		r.fail("bool")
		return false
	}
	v := r.data[0] == 1
	r.data = r.data[1:]
	return v
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.data)) < n {
		r.fail("string")
		return ""
	}
	v := string(r.data[:n])
	r.data = r.data[n:]
	return v
}

// Int decodes a zigzag varint into the signed integer type T, failing
// r when the value does not fit: a corrupted field cannot wrap into a
// plausible value, and every accepted encoding re-encodes to itself.
func Int[T ~int8 | ~int16 | ~int32 | ~int64 | ~int](r *Reader) T {
	v := r.Varint()
	if t := T(v); int64(t) == v {
		return t
	}
	r.fail("int (out of range)")
	return 0
}

// Count decodes an unsigned varint as a length/count, enforcing the
// given upper bound so a corrupted length cannot drive allocation.
func (r *Reader) Count(max int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(max) {
		r.fail(fmt.Sprintf("count (%d exceeds bound %d)", v, max))
		return 0
	}
	return int(v)
}

// Elems decodes the length of a list whose elements encode to at least
// size bytes each. Beyond Count's bound it fails when the list cannot
// fit in the undecoded input, so the length a caller allocates for is
// justified by bytes actually received.
func (r *Reader) Elems(max, size int) int {
	v := r.Count(max)
	if r.err == nil && v > len(r.data)/size {
		r.fail(fmt.Sprintf("list (%d elements of ≥%d bytes in %d bytes)", v, size, len(r.data)))
		return 0
	}
	return v
}
