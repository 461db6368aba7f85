// Package slab provides cache-line-aligned backing arrays for agent
// state — the allocation layer shared by the serial and sharded
// population engines.
//
// Both engines' hot loops stream transitions over a contiguous []S
// ("the slab") under uniform random access. Whether element 0 sits on
// a cache-line boundary decides how agent records straddle lines:
// an aligned slab puts ⌈size·n/64⌉ lines under the working set, an
// unaligned one adds a straddling line per boundary-crossing record
// and — in the sharded engine — lets the first agents of shard s+1
// share a line with the last agents of shard s, turning the
// shard-disjointness guarantee into false sharing at slab seams. Go's
// allocator hands out page-aligned blocks for large slices, so big
// populations are usually aligned by luck; this package makes it a
// property instead of an accident, and fixes the small-n case.
//
// Alignment never affects a trajectory — engines copy element values,
// not addresses — so Align may relocate freely: determinism contracts
// ("pure function of (seed, S)") are preserved by construction.
package slab

import "unsafe"

// LineBytes is the cache-line size the slab layer aligns to: 64 bytes
// on every amd64/arm64 part this repository targets.
const LineBytes = 64

// New returns a length-n, capacity-n slice of S whose first element
// sits on a cache-line boundary whenever element-granular padding can
// reach one (element sizes that divide or are multiples of LineBytes;
// other sizes get the allocator's natural alignment — best effort,
// never an error).
func New[S any](n int) []S {
	var zero S
	sz := int(unsafe.Sizeof(zero))
	if n == 0 || sz == 0 {
		return make([]S, n)
	}
	pad := (LineBytes + sz - 1) / sz
	buf := make([]S, n+pad)
	for off := 0; off <= pad; off++ {
		if uintptr(unsafe.Pointer(&buf[off]))%LineBytes == 0 {
			return buf[off : off+n : off+n]
		}
	}
	return buf[:n:n]
}

// Aligned reports whether the slice's first element sits on a
// cache-line boundary. Empty slices are trivially aligned.
func Aligned[S any](s []S) bool {
	if len(s) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&s[0]))%LineBytes == 0
}

// Align returns an aligned slab holding the same elements: the slice
// itself when already aligned, otherwise a copy into a fresh aligned
// allocation. Engines that own their state slice call this once at
// construction, so the caller's slice identity is only broken when the
// original allocation was misaligned — and the engine's documented
// ownership of the slice makes that invisible.
func Align[S any](s []S) []S {
	if Aligned(s) {
		return s
	}
	ns := New[S](len(s))
	copy(ns, s)
	return ns
}

// FetchBytes is the slab size above which the engines fetch each
// window's agent lines before the window's transitions (Fetch). Below
// it the slab stays in the private caches, the fetch finds every line
// already there and only adds its loads. It is a measured crossover,
// not a tuning knob: on the 2-core recording machine (2 MiB of L2 per
// core) the sharded engine paid about 10% for the fetch at a 2.6 MB
// slab and gained about 10% at 5.2 MB (DESIGN.md §3.2).
const FetchBytes = 4 << 20

// Fetches reports whether a slab of n agents of type S is larger than
// FetchBytes, so that the engines fetch its lines ahead (Fetch).
func Fetches[S any](n int) bool {
	var zero S
	return uint64(n)*uint64(unsafe.Sizeof(zero)) > FetchBytes
}

// Fetch loads the first and last byte of s[i] for every index i in
// idx and returns them XOR-folded into one byte. The engines' hot
// loops are a walk over uniformly random agents, and each transition
// waits on its two agents' cache misses one interaction at a time;
// fetching a whole window's agents first puts its misses in flight
// together, so the transitions that follow find their lines in cache.
// The first and last byte cover both lines of a record that straddles
// a line boundary. Callers keep the result in a field of the unit that
// owns the window: the compiler must assume a field is read, so the
// loads stay, and concurrent units never write the same field. Fetch
// only reads, so it cannot change a trajectory.
func Fetch[S any](s []S, idx []int32) uint8 {
	var zero S
	size := unsafe.Sizeof(zero)
	if size == 0 {
		return 0
	}
	var x uint8
	for _, i := range idx {
		p := unsafe.Pointer(&s[i])
		x ^= *(*uint8)(p) ^ *(*uint8)(unsafe.Add(p, size-1))
	}
	return x
}
