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
	// frameDeltas flows both ways once per phase: workers report the
	// post-states of the agents their units touched; the coordinator
	// broadcasts the merged set back so every mirror agrees at the
	// phase boundary.
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
	wireVersion = 1

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

// writeFrame sends one frame as a single write. A positive timeout
// arms a write deadline (the coordinator side); zero trusts the peer
// (the worker side, which blocks on the coordinator by design).
func writeFrame(c net.Conn, timeout time.Duration, typ byte, payload []byte) error {
	if len(payload) >= maxFrame {
		return fmt.Errorf("dist: frame payload %d bytes exceeds limit", len(payload))
	}
	buf := make([]byte, 5+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[4] = typ
	copy(buf[5:], payload)
	if timeout > 0 {
		c.SetWriteDeadline(time.Now().Add(timeout))
		defer c.SetWriteDeadline(time.Time{})
	}
	_, err := c.Write(buf)
	return err
}

// frameChunk is readFrame's first buffer size: frames up to it are
// read into one exact allocation, larger ones grow the buffer by
// doubling as their bytes arrive.
const frameChunk = 64 << 10

// readFrame reads one frame. A positive timeout arms a read deadline;
// its expiry is how the coordinator detects a dead worker. The length
// header is not trusted for allocation: the buffer grows only as
// payload bytes actually arrive, so a peer that announces a huge frame
// and then stalls or hangs up costs memory in proportion to what it
// sent, plus one frameChunk.
func readFrame(c net.Conn, timeout time.Duration) (typ byte, payload []byte, err error) {
	if timeout > 0 {
		c.SetReadDeadline(time.Now().Add(timeout))
		defer c.SetReadDeadline(time.Time{})
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame length %d out of range", n)
	}
	buf := make([]byte, min(n, frameChunk))
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
			return buf[0], buf[1:], nil
		}
		buf = append(buf, make([]byte, min(n-off, off))...)
	}
}

// sendHello greets the coordinator. Workers send one on connect and
// after every Stop, so the coordinator of each run finds exactly one
// pending Hello on a pooled connection.
func sendHello(c net.Conn) error {
	var w ckpt.Writer
	w.Raw([]byte(helloMagic))
	w.Uvarint(wireVersion)
	return writeFrame(c, 0, frameHello, w.Bytes())
}

// handshake consumes and validates the worker's pending Hello.
func handshake(c net.Conn, timeout time.Duration) error {
	typ, payload, err := readFrame(c, timeout)
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
