package slab

import "testing"

type s16 struct{ a, b int64 }
type s12 struct {
	a int64
	b int32
}
type s1 struct{ a byte }

func TestNewAligned(t *testing.T) {
	for i := 0; i < 64; i++ {
		if s := New[s16](100); !Aligned(s) || len(s) != 100 || cap(s) != 100 {
			t.Fatalf("New[s16] iteration %d: aligned=%v len=%d cap=%d", i, Aligned(s), len(s), cap(s))
		}
		if s := New[s1](7); !Aligned(s) || len(s) != 7 {
			t.Fatalf("New[s1] iteration %d: aligned=%v len=%d", i, Aligned(s), len(s))
		}
	}
	if s := New[s16](0); len(s) != 0 {
		t.Fatalf("New(0) returned len %d", len(s))
	}
}

func TestAlignPreservesContents(t *testing.T) {
	// Slice into an allocation at an element offset so the input is
	// misaligned with high probability across iterations; Align must
	// return equal contents either way, aligned whenever it relocates.
	for i := 0; i < 64; i++ {
		backing := make([]s12, 33)
		for j := range backing {
			backing[j] = s12{a: int64(j), b: int32(i)}
		}
		in := backing[1:]
		out := Align(in)
		if len(out) != len(in) {
			t.Fatalf("Align changed length: %d -> %d", len(in), len(out))
		}
		for j := range out {
			if out[j] != in[j] {
				t.Fatalf("Align changed element %d: %+v -> %+v", j, in[j], out[j])
			}
		}
		if &out[0] != &in[0] && !Aligned(out) {
			t.Fatalf("Align relocated to an unaligned slab")
		}
	}
	if got := Align[s16](nil); len(got) != 0 {
		t.Fatalf("Align(nil) returned len %d", len(got))
	}
}

func TestFetch(t *testing.T) {
	type s8 struct{ a, b int32 }
	s := New[s8](8)
	for i := range s {
		s[i] = s8{a: int32(i + 1), b: int32(i) << 24}
	}
	// Little-endian: s[i]'s first byte is i+1, its last i.
	idx := []int32{3, 5, 5, 0}
	var want uint8
	for _, i := range idx {
		want ^= uint8(i+1) ^ uint8(i)
	}
	if got := Fetch(s, idx); got != want {
		t.Fatalf("Fetch = %#x, want %#x", got, want)
	}
	if got := Fetch(s, nil); got != 0 {
		t.Fatalf("Fetch over no indices = %#x, want 0", got)
	}
	if got := Fetch(make([]struct{}, 4), idx[:2]); got != 0 {
		t.Fatalf("Fetch over zero-size agents = %#x, want 0", got)
	}
}

func TestFetches(t *testing.T) {
	if n := FetchBytes / 16; Fetches[s16](n) || !Fetches[s16](n+1) {
		t.Fatalf("Fetches[s16] does not switch on past %d agents (%d B)", n, FetchBytes)
	}
}
