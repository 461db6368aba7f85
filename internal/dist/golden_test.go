package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
)

var update = flag.Bool("update", false, "rewrite wire golden fixtures")

// recorder captures the coordinator's view of the byte stream,
// coalescing consecutive same-direction chunks so the transcript is
// independent of TCP segmentation. At one worker the frame protocol is
// fully sequential, so direction flips — and hence the transcript —
// are deterministic.
type recorder struct {
	mu      sync.Mutex
	dirs    []byte
	streams [][]byte
}

func (r *recorder) add(dir byte, b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.dirs); n > 0 && r.dirs[n-1] == dir {
		r.streams[n-1] = append(r.streams[n-1], b...)
		return
	}
	r.dirs = append(r.dirs, dir)
	r.streams = append(r.streams, append([]byte(nil), b...))
}

// encode serializes the transcript: per entry a direction byte
// ('C' coordinator→worker, 'W' worker→coordinator), a u32 LE length,
// and the bytes.
func (r *recorder) encode() []byte {
	var out []byte
	for i, dir := range r.dirs {
		out = append(out, dir)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.streams[i])))
		out = append(out, r.streams[i]...)
	}
	return out
}

type recConn struct {
	net.Conn
	rec *recorder
}

func (c *recConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.rec.add('W', b[:n])
	}
	return n, err
}

func (c *recConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if n > 0 {
		c.rec.add('C', b[:n])
	}
	return n, err
}

// TestWireGolden pins the framed coordinator↔worker byte stream of a
// small two-batch run — greeting, assignment sub-blob, class counts,
// per-phase delta exchange, barrier fold frames — against a committed
// fixture. Any codec or protocol change shows up as a fixture diff:
// deliberate changes re-record with -update (and must bump the wire
// version when frames change shape).
func TestWireGolden(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	wc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cc, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer cc.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(wc, func(h *AssignHeader) (Runtime, error) {
			if h.Protocol != "stable" {
				return nil, fmt.Errorf("unexpected protocol %q", h.Protocol)
			}
			return NewRuntime(stable.Describe()), nil
		})
		wc.Close()
	}()

	rec := &recorder{}
	d := stable.Describe()
	p := d.New(16)
	init := d.Init(p, "fresh", rng.New(42))
	id := RunID{Protocol: "stable", Init: "fresh", N: 16, Seed: 42, Epsilon: 1, Shards: 2}
	co, err := NewCoordinator(d, p, init, id, []net.Conn{&recConn{Conn: cc, rec: rec}}, Options{})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	// 200 interactions = two clamped batches of 100 — enough to cover
	// every frame type twice while keeping the fixture small. The
	// budget exhausts (stable needs far more), which also pins the
	// clean Stop.
	if _, err := co.RunUntilExact(sim.DescCond(d, p), 200); !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhausted", err)
	}
	co.Stop()

	got := rec.encode()
	path := filepath.Join("testdata", "wire_stable_n16_s2.bin")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %d segments)", path, len(got), len(rec.dirs))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("wire transcript diverged from fixture at byte %d (got %d bytes, want %d)", i, len(got), len(want))
	}
	cc.Close()
	<-done
}
