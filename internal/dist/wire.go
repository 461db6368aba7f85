// Package dist is the distributed shard runtime: one sharded
// population-protocol run executed across worker processes. A
// coordinator owns the run — the master classification stream, the
// committed engine state, and the exact-stop fold — while each worker
// holds a full population mirror and executes only the shard group it
// is assigned. Per batch the coordinator broadcasts the alias-table
// class counts, the processes advance in lockstep through the intra
// phase and the tournament rounds (exchanging modified agents after
// every phase so all mirrors agree at phase boundaries), and at the
// batch barrier workers report their touch records, stream positions
// and instrumentation counters. The coordinator folds the records in
// the engine's canonical unit order, so the trajectory — and the exact
// hitting time — is a pure function of (seed, shard count), not of the
// worker count or of shard placement: the same bytes as the in-process
// sharded engine.
//
// Crash recovery reuses the checkpoint codec as the wire format: an
// Assign frame is a per-shard-group checkpoint sub-blob (streams plus
// agent slab at the last committed barrier), so when a worker dies —
// detected by a read/write deadline standing in for a heartbeat — the
// coordinator rolls the batch back to the committed barrier,
// repartitions the shards over the survivors, re-materializes them via
// fresh Assign frames, and replays the batch deterministically.
// DESIGN.md §9 develops the cost model and the determinism argument.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"ssrank/internal/ckpt"
)

// Frame types, coordinator ↔ worker. Every frame is
// [u32 LE length][type byte][payload], length counting the type byte.
const (
	// frameHello is sent by a worker on connect and again after every
	// Stop, so a pooled connection presents a fresh handshake to each
	// run. Payload: "ssdw" magic + wire version.
	frameHello = 1
	// frameAssign (coordinator → worker) installs a shard group: run
	// identity, group bounds, instrumentation baseline, the committed
	// stream table and the full agent slab — a checkpoint sub-blob
	// doubling as the migration wire format.
	frameAssign = 2
	// frameCounts (coordinator → worker) opens a batch: sequence
	// number, batch size, tracking flag, per-class interaction counts.
	frameCounts = 3
	// frameDeltas flows both ways once per phase: each worker reports
	// one delta section, the post-states of the agents its units
	// touched as fixed-width agent images (proto.Layout); the coordinator validates every section and forwards
	// each worker the others' sections verbatim, so every mirror
	// agrees at the phase boundary.
	frameDeltas = 4
	// frameBarrier (worker → coordinator) closes a batch: per-owned-unit
	// touch records, owned stream positions, instrumentation vector.
	frameBarrier = 5
	// frameStop (coordinator → worker) releases the worker back to
	// idle; the worker answers with a fresh Hello.
	frameStop = 6
)

const (
	helloMagic  = "ssdw"
	wireVersion = 3

	// maxFrame bounds a frame payload; anything larger is a protocol
	// violation, not a legitimate run.
	maxFrame = 1 << 30

	// Decode bounds: a malformed or hostile frame must fail fast, not
	// allocate unboundedly.
	maxBatch  = 1 << 30
	maxShards = 1 << 20
	maxInstr  = 1 << 12
)

// DefaultTimeout is the heartbeat bound when Options.Timeout is zero:
// how long the coordinator waits on any single worker frame (or frame
// write) before declaring the worker dead.
const DefaultTimeout = 30 * time.Second

// Options configures a Coordinator.
type Options struct {
	// Timeout bounds every per-worker wire operation — the crash
	// detector. A worker that produces no frame within it is dropped
	// and its shard group migrated. Zero means DefaultTimeout.
	Timeout time.Duration
	// OnBatch, when set, is called after every committed batch barrier
	// with the total interactions committed so far.
	OnBatch func(steps int64)
}

// frameHeader is the length word plus the type byte.
const frameHeader = 5

// frameWriter encodes outgoing frames into one buffer reused across
// frames: begin reserves the header, the caller appends the payload,
// and send fills in the length and writes the frame with a single
// Write. One Write per frame keeps the frame count on the wire equal to
// the write count, which the crash-injection tests rely on.
type frameWriter struct{ w ckpt.Writer }

// begin starts a frame of type typ and returns the writer its payload
// is appended to.
func (f *frameWriter) begin(typ byte) *ckpt.Writer {
	f.w.Reset()
	f.w.Raw([]byte{0, 0, 0, 0, typ})
	return &f.w
}

// send writes the frame begun last. A positive timeout arms a write
// deadline (the coordinator side); zero trusts the peer (the worker
// side, which blocks on the coordinator by design).
func (f *frameWriter) send(c net.Conn, timeout time.Duration) error {
	if n := f.w.Len() - frameHeader; n >= maxFrame {
		return fmt.Errorf("dist: frame payload %d bytes exceeds limit", n)
	}
	buf := f.frame()
	if timeout > 0 {
		c.SetWriteDeadline(time.Now().Add(timeout))
		defer c.SetWriteDeadline(time.Time{})
	}
	_, err := c.Write(buf)
	return err
}

// frame fills in the length of the frame begun last and returns its
// bytes, valid until the next begin.
func (f *frameWriter) frame() []byte {
	buf := f.w.Bytes()
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf
}

// frameChunk is the least a frameReader reads before growing its
// buffer: a frame that does not fit the kept buffer is read into one
// allocation of up to frameChunk (or the kept capacity, if larger),
// which then doubles as the frame's bytes arrive.
const frameChunk = 64 << 10

// frameReader reads incoming frames into one buffer reused across
// frames; a payload it returns is valid until the next read. Every
// frame but Assign is bounded by the batch period, so the buffer
// settles at the largest batch frame and steady-state reads allocate
// nothing. An Assign frame carries the whole agent slab: its buffer is
// released rather than kept for the life of the connection.
type frameReader struct {
	hdr [4]byte
	buf []byte
}

// read reads one frame. A positive timeout arms a read deadline; its
// expiry is how the coordinator detects a dead worker. The length
// header is not trusted for allocation: the buffer grows only as
// payload bytes actually arrive, so a peer that announces a huge frame
// and then stalls or hangs up costs memory in proportion to what it
// sent, plus one frameChunk.
func (f *frameReader) read(c net.Conn, timeout time.Duration) (typ byte, payload []byte, err error) {
	if timeout > 0 {
		c.SetReadDeadline(time.Now().Add(timeout))
		defer c.SetReadDeadline(time.Time{})
	}
	if _, err := io.ReadFull(c, f.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(f.hdr[:]))
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame length %d out of range", n)
	}
	buf := f.buf
	if first := min(n, max(cap(buf), frameChunk)); cap(buf) < first {
		buf = make([]byte, first)
	} else {
		buf = buf[:first]
	}
	for off := 0; ; {
		k, err := io.ReadFull(c, buf[off:])
		off += k
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised payload bytes
		}
		if err != nil {
			return 0, nil, err
		}
		if off == n {
			break
		}
		buf = append(buf, make([]byte, min(n-off, off))...)
	}
	if buf[0] == frameAssign {
		f.buf = nil
	} else {
		f.buf = buf[:0]
	}
	return buf[0], buf[1:], nil
}

// sendHello greets the coordinator. Workers send one on connect and
// after every Stop, so the coordinator of each run finds exactly one
// pending Hello on a pooled connection.
func sendHello(c net.Conn, f *frameWriter) error {
	w := f.begin(frameHello)
	w.Raw([]byte(helloMagic))
	w.Uvarint(wireVersion)
	return f.send(c, 0)
}

// handshake consumes and validates the worker's pending Hello.
func handshake(c net.Conn, f *frameReader, timeout time.Duration) error {
	typ, payload, err := f.read(c, timeout)
	if err != nil {
		return err
	}
	if typ != frameHello {
		return fmt.Errorf("dist: expected hello frame, got type %d", typ)
	}
	r := ckpt.NewReader(payload)
	r.Expect([]byte(helloMagic))
	v := r.Uvarint()
	if err := r.Close(); err != nil {
		return fmt.Errorf("dist: malformed hello: %w", err)
	}
	if v != wireVersion {
		return fmt.Errorf("dist: worker speaks wire version %d, want %d", v, wireVersion)
	}
	return nil
}

var errNoWorkers = errors.New("dist: no live workers")
