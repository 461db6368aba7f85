package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	goruntime "runtime"
	"testing"

	"ssrank/internal/baseline/cai"
	"ssrank/internal/ckpt"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
)

// sendFrame writes one frame from a fresh frameWriter.
func sendFrame(c net.Conn, typ byte, payload []byte) error {
	var f frameWriter
	f.begin(typ).Raw(payload)
	return f.send(c, 0)
}

// hugeHangup announces a 1 GiB frame on a fresh pipe, then hangs up
// without sending any of it, and returns the reading end.
func hugeHangup() net.Conn {
	c, peer := net.Pipe()
	go func() {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 1<<30)
		peer.Write(hdr[:])
		peer.Close()
	}()
	return c
}

// TestReadFrameBoundsAllocation: a peer that announces a 1 GiB frame
// and hangs up must cost an error, not a 1 GiB allocation — both on a
// fresh reader and on one whose reused buffer already holds a large
// frame, which must be read into, not grown from the header.
func TestReadFrameBoundsAllocation(t *testing.T) {
	var fresh, used frameReader
	c, peer := net.Pipe()
	go sendFrame(peer, frameBarrier, make([]byte, 3*frameChunk))
	if _, _, err := used.read(c, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
	peer.Close()
	for _, tc := range []struct {
		name string
		f    *frameReader
	}{{"fresh reader", &fresh}, {"reused buffer", &used}} {
		c := hugeHangup()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		_, _, err := tc.f.read(c, 0)
		goruntime.ReadMemStats(&after)
		c.Close()
		if err == nil {
			t.Fatalf("%s: truncated 1 GiB frame read without error", tc.name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%s: read allocated %d bytes for a frame whose payload never arrived", tc.name, d)
		}
	}
}

// streamConn is a net.Conn reading from a byte stream, for driving a
// frameReader without goroutines.
type streamConn struct {
	net.Conn
	r io.Reader
}

func (c streamConn) Read(b []byte) (int, error) { return c.r.Read(b) }

// TestFrameReaderReuse: batch frames reuse one read buffer, while an
// Assign frame's slab-sized buffer is released after the read. The
// allocations are averaged over many reads of one prebuilt frame, so a
// stray allocation of another goroutine cannot fail the test.
func TestFrameReaderReuse(t *testing.T) {
	frame := func(typ byte, size int) []byte {
		var w frameWriter
		w.begin(typ).Raw(make([]byte, size))
		return w.frame()
	}
	batch := frame(frameDeltas, frameChunk)
	assign := frame(frameAssign, 4*frameChunk)
	rd := bytes.NewReader(frame(frameDeltas, 2*frameChunk))
	var c net.Conn = streamConn{r: rd}
	var f frameReader
	if _, _, err := f.read(c, 0); err != nil {
		t.Fatal(err)
	}
	kept := cap(f.buf)
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(batch)
		if _, _, err := f.read(c, 0); err != nil {
			t.Fatal(err)
		}
	})
	if kept <= 2*frameChunk || cap(f.buf) != kept {
		t.Fatalf("buffer capacity %d after a %d-byte frame, %d after the next; want it kept", kept, 2*frameChunk+1, cap(f.buf))
	}
	if allocs != 0 {
		t.Errorf("reading a frame into the kept buffer made %v allocations per read", allocs)
	}
	rd.Reset(assign)
	if _, _, err := f.read(c, 0); err != nil {
		t.Fatal(err)
	}
	if f.buf != nil {
		t.Errorf("reader kept a %d-byte buffer after an Assign frame", cap(f.buf))
	}
}

// TestReadFrameRoundTrip reads frames on both sides of frameChunk back
// exactly as they were sent, through one reused reader.
func TestReadFrameRoundTrip(t *testing.T) {
	var f frameReader
	for _, size := range []int{0, 1, frameChunk - 1, frameChunk, 5*frameChunk + 3, 7} {
		c, peer := net.Pipe()
		payload := bytes.Repeat([]byte{0xa5, 0x17, 0x3c}, size/3+1)[:size]
		go sendFrame(peer, frameDeltas, payload)
		typ, got, err := f.read(c, 0)
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
		GroupLo: 0, GroupHi: 2, Layout: proto.LayoutOf[cai.State]().Fingerprint,
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
