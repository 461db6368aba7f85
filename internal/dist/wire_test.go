package dist

import (
	"bytes"
	"encoding/binary"
	"net"
	goruntime "runtime"
	"testing"

	"ssrank/internal/baseline/cai"
	"ssrank/internal/ckpt"
	"ssrank/internal/rng"
)

// TestReadFrameBoundsAllocation: a peer that announces a 1 GiB frame
// and hangs up must cost an error, not a 1 GiB allocation.
func TestReadFrameBoundsAllocation(t *testing.T) {
	c, peer := net.Pipe()
	defer c.Close()
	go func() {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 1<<30)
		peer.Write(hdr[:])
		peer.Close()
	}()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, _, err := readFrame(c, 0)
	goruntime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 1 GiB frame read without error")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("readFrame allocated %d bytes for a frame whose payload never arrived", d)
	}
}

// TestReadFrameRoundTrip reads frames on both sides of frameChunk back
// exactly as writeFrame sent them.
func TestReadFrameRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, frameChunk - 1, frameChunk, 5*frameChunk + 3} {
		c, peer := net.Pipe()
		payload := bytes.Repeat([]byte{0xa5, 0x17, 0x3c}, size/3+1)[:size]
		go writeFrame(peer, 0, frameDeltas, payload)
		typ, got, err := readFrame(c, 0)
		if err != nil || typ != frameDeltas || !bytes.Equal(got, payload) {
			t.Fatalf("size %d: type %d, %d bytes, err %v", size, typ, len(got), err)
		}
		c.Close()
		peer.Close()
	}
}

// TestInstallAssignBoundsAllocation: an Assign frame that names a
// population of 2^27 and a slab count of 2^27, then ends, must cost an
// error, not a slab allocation sized by the header. Every agent takes
// at least one byte, so the frame cannot hold the slab it announces.
func TestInstallAssignBoundsAllocation(t *testing.T) {
	const n = 1 << 27
	var w ckpt.Writer
	appendAssignHeader(&w, AssignHeader{
		RunID:   RunID{Protocol: "cai", Init: "fresh", N: n, Seed: 1, Epsilon: 1, Shards: 2},
		GroupLo: 0, GroupHi: 2,
	})
	appendInstr(&w, nil)
	ckpt.WriteShardStreams(&w, [4]uint64{1}, make([]rng.PairBatchState, 2), make([][4]uint64, 1))
	w.Uvarint(n)
	factory := func(*AssignHeader) (Runtime, error) { return NewRuntime(cai.Describe()), nil }

	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, err := installAssign(factory, w.Bytes())
	goruntime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("truncated %d-byte Assign frame for n=%d installed without error", w.Len(), n)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("installAssign allocated %d bytes for a %d-byte frame", d, w.Len())
	}
}
