package ckpt

import (
	"math"
	"testing"
)

// TestReaderRejectsOverlongVarints pins canonical decoding: a
// zero-padded varint decodes to the value of a shorter one, so both
// readers reject it, while minimal encodings of the same values pass.
func TestReaderRejectsOverlongVarints(t *testing.T) {
	for _, b := range [][]byte{{0x81, 0x00}, {0x80, 0x80, 0x00}, {0xff, 0x80, 0x00}} {
		u, v := NewReader(b), NewReader(b)
		u.Uvarint()
		v.Varint()
		if u.Err() == nil || v.Err() == nil {
			t.Errorf("overlong % x accepted: uvarint err %v, varint err %v", b, u.Err(), v.Err())
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		var w Writer
		w.Uvarint(v)
		w.Varint(int64(v))
		r := NewReader(w.Bytes())
		if got := r.Uvarint(); got != v {
			t.Errorf("Uvarint(%d) read back %d", v, got)
		}
		if got := r.Varint(); got != int64(v) {
			t.Errorf("Varint(%d) read back %d", int64(v), got)
		}
		if err := r.Close(); err != nil {
			t.Errorf("%d: %v", v, err)
		}
	}
}

// TestNarrowingDecoders: Int accepts exactly the values of its target
// type.
func TestNarrowingDecoders(t *testing.T) {
	var w Writer
	w.Varint(math.MinInt32)
	r := NewReader(w.Bytes())
	if got := Int[int32](r); got != math.MinInt32 {
		t.Fatalf("Int[int32] = %d", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	w = Writer{}
	w.Varint(math.MaxInt32 + 1)
	if r := NewReader(w.Bytes()); Int[int32](r) != 0 || r.Err() == nil {
		t.Error("Int[int32] accepted 2^31")
	}
}

// TestElemsBoundsByInput: a list length is rejected when its elements
// could not fit in the bytes left, whatever the caller's bound.
func TestElemsBoundsByInput(t *testing.T) {
	var w Writer
	w.Uvarint(4)
	w.Raw(make([]byte, 8))
	if r := NewReader(w.Bytes()); r.Elems(100, 2) != 4 || r.Err() != nil {
		t.Errorf("4 elements of 2 bytes in 8 bytes rejected: %v", r.Err())
	}
	if r := NewReader(w.Bytes()); r.Elems(100, 3) != 0 || r.Err() == nil {
		t.Error("4 elements of 3 bytes accepted in 8 bytes")
	}
	if r := NewReader(w.Bytes()); r.Elems(3, 1) != 0 || r.Err() == nil {
		t.Error("Elems ignored its count bound")
	}
}
