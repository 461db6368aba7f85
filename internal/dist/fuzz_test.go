package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"

	"ssrank/internal/ckpt"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/stable"
)

// transcriptFrame is one frame of a recorded wire transcript.
type transcriptFrame struct {
	dir     byte // 'C' coordinator→worker, 'W' worker→coordinator
	typ     byte
	payload []byte
}

// readTranscript splits a TestWireGolden fixture into its frames.
func readTranscript(tb testing.TB, path string) []transcriptFrame {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var frames []transcriptFrame
	for len(data) > 0 {
		if len(data) < 5 {
			tb.Fatalf("%s: truncated segment header", path)
		}
		dir, n := data[0], int(binary.LittleEndian.Uint32(data[1:5]))
		seg := data[5 : 5+n]
		data = data[5+n:]
		for len(seg) > 0 {
			m := int(binary.LittleEndian.Uint32(seg))
			frames = append(frames, transcriptFrame{dir: dir, typ: seg[4], payload: seg[5 : 4+m]})
			seg = seg[4+m:]
		}
	}
	return frames
}

// sinkConn accepts every write and reads EOF: the coordinator a
// worker batch talks to until it first waits for a reply.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(b []byte) (int, error) { return len(b), nil }
func (sinkConn) Read([]byte) (int, error)    { return 0, io.EOF }

// FuzzDistPayloads feeds the payloads of counts, deltas and barrier
// frames to every decoder that reads them: the worker's batch loop
// (serveBatch) and ApplyDeltas, and the coordinator's delta section
// validation and decodeBarrier, at the n=16, S=2 run of the wire
// transcript, whose frames seed the corpus. No input may panic or
// allocate beyond a constant plus a multiple of its size, and a delta
// section the coordinator accepts must re-encode to the bytes it
// forwards.
func FuzzDistPayloads(f *testing.F) {
	var assign []byte
	for _, fr := range readTranscript(f, filepath.Join("testdata", "wire_stable_n16_s2.bin")) {
		switch fr.typ {
		case frameAssign:
			assign = fr.payload
		case frameCounts, frameDeltas, frameBarrier:
			f.Add(fr.typ, fr.payload)
		}
	}
	if assign == nil {
		f.Fatal("transcript has no assign frame")
	}
	d := stable.Describe()
	factory := func(*AssignHeader) (Runtime, error) { return NewRuntime(d), nil }
	p := d.New(16)
	id := RunID{Protocol: "stable", Init: "fresh", N: 16, Seed: 42, Epsilon: 1, Shards: 2}
	co, err := newCoordinator(d, p, d.Init(p, "fresh", rng.New(42)), id, Options{})
	if err != nil {
		f.Fatal(err)
	}
	phases := 1 + len(co.r.RoundSchedule())

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		// decode feeds the input to the decoders of its frame type on
		// a freshly installed worker runtime and returns the bytes the
		// decoders allocated.
		decode := func() uint64 {
			rt, err := installAssign(factory, assign)
			if err != nil {
				t.Fatal(err)
			}
			s := &session{glo: 0, ghi: 2, owned: crossOwned(co.r, 0, 2)}
			co.pending = co.pending[:0]
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			switch typ {
			case frameCounts:
				w := &worker{conn: sinkConn{}, factory: factory, rt: rt}
				w.serveBatch(payload)
			case frameDeltas:
				r := ckpt.NewReader(payload)
				r.Uvarint() // seq
				body := payload[len(payload)-r.Remaining():]
				k := r.Uvarint()
				if r.Err() == nil {
					rt.ApplyDeltas(r)
				}
				if k < uint64(phases) && co.decodeDeltas(s, int(k), body) == nil {
					// Load every accepted image into a state and encode it
					// again: the image must be canonical.
					e := 4 + co.lay.Size
					var w ckpt.Writer
					w.Uvarint(uint64(len(co.pending) / e))
					for ent := co.pending; len(ent) > 0; ent = ent[e:] {
						var st stable.State
						proto.LoadImage(&st, ent[4:e])
						out := w.Extend(e)
						copy(out, ent[:4])
						proto.PutImage(co.lay, out[4:], &st)
					}
					if !bytes.Equal(w.Bytes(), s.section) {
						t.Fatalf("accepted delta section % x re-encodes to % x", s.section, w.Bytes())
					}
				}
			case frameBarrier:
				r := ckpt.NewReader(payload)
				r.Uvarint() // seq
				if r.Err() == nil {
					co.decodeBarrier(s, payload[len(payload)-r.Remaining():], co.batch)
				}
			}
			goruntime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		// The fuzz engine can allocate on its own goroutines while an
		// input runs, so the bound is checked on the least of three
		// decodes.
		a := uint64(math.MaxUint64)
		for range 3 {
			a = min(a, decode())
		}
		// The constant covers one batch of the n=16 runtime's record
		// and endpoint buffers, grown from empty on every input.
		if limit := uint64(256<<10 + 64*len(payload)); a > limit {
			t.Fatalf("frame type %d of %d bytes allocated %d bytes (limit %d)", typ, len(payload), a, limit)
		}
	})
}
