package ssrank

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"ssrank/internal/baseline/aware"
	"ssrank/internal/baseline/cai"
	"ssrank/internal/baseline/interval"
	"ssrank/internal/baseline/sudo"
	"ssrank/internal/ckpt"
	"ssrank/internal/core"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
)

// stateCodecCase holds the state-codec checks of one registered
// protocol's generic descriptor.
type stateCodecCase struct {
	name      string
	fields    func(t *testing.T)
	roundTrip func(t *testing.T)
	rejects   func(t *testing.T)
}

// stateCodecCases lists every registered protocol, in registry order
// (TestDescriptorStateFields keeps the two lists in step).
func stateCodecCases() []stateCodecCase {
	return []stateCodecCase{
		newStateCodecCase(stable.Describe()),
		newStateCodecCase(core.Describe()),
		newStateCodecCase(cai.Describe()),
		newStateCodecCase(aware.Describe()),
		newStateCodecCase(interval.Describe(1)),
		newStateCodecCase(sudo.Describe(sudo.DefaultTimeoutFactor)),
	}
}

func newStateCodecCase[S any, P sim.Protocol[S]](d proto.Descriptor[S, P]) stateCodecCase {
	return stateCodecCase{
		name: d.Name,
		// The slab codec carries reset counters through a checkpoint
		// only as the Instr vector.
		fields: func(t *testing.T) {
			if (d.Instr == nil) != (d.SetInstr == nil) {
				t.Error("Instr and SetInstr must be set both or neither")
			}
			if d.Resets != nil && d.Instr == nil {
				t.Error("Resets without Instr: checkpoints would drop the reset counters")
			}
		},
		// Drive the protocol from its last-listed (adversarial or
		// random) init long enough to accumulate reset
		// instrumentation, then require a write/read round trip to
		// restore the slab and every counter exactly, and to
		// re-encode to the identical bytes (the encoding is
		// canonical).
		roundTrip: func(t *testing.T) {
			const n = 48
			p := d.New(n)
			r := sim.New[S](p, d.Init(p, d.Inits[len(d.Inits)-1], rng.New(5)), 5)
			r.Run(n * n * 40)
			if d.Resets != nil && d.Resets(p) == 0 {
				t.Fatal("run accumulated no resets; the counter round trip is untested")
			}
			var w ckpt.Writer
			d.WriteState(p, r.States(), &w)

			q := d.New(n)
			rd := ckpt.NewReader(w.Bytes())
			states, err := d.ReadState(q, n, rd)
			if err == nil {
				err = rd.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(states, r.States()) {
				t.Fatal("restored slab differs from the written one")
			}
			if d.Resets != nil {
				if got, want := d.Resets(q), d.Resets(p); got != want {
					t.Fatalf("restored %d resets, want %d", got, want)
				}
			}
			if d.ResetBreakdown != nil {
				if got, want := d.ResetBreakdown(q), d.ResetBreakdown(p); !reflect.DeepEqual(got, want) {
					t.Fatalf("restored reset breakdown %v, want %v", got, want)
				}
			}
			var w2 ckpt.Writer
			d.WriteState(q, states, &w2)
			if !bytes.Equal(w.Bytes(), w2.Bytes()) {
				t.Fatal("re-encoding a restored state changed the bytes")
			}
		},
		// A section for a different population size and every strict
		// prefix of a valid one fail instead of yielding a plausible
		// partial state. A slab of zero-valued agents takes exactly one
		// byte per field; one byte short of that, a large slab is
		// rejected before anything is sized by its count.
		rejects: func(t *testing.T) {
			const big = 1 << 16
			var zw ckpt.Writer
			d.WriteSlab(make([]S, big), &zw)
			short := zw.Bytes()[:zw.Len()-1]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := d.ReadSlab(big, ckpt.NewReader(short))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Error("slab one byte short of one byte per field accepted")
			}
			if a := after.TotalAlloc - before.TotalAlloc; a >= uint64(len(short)) {
				t.Errorf("rejecting a %d-byte slab of %d agents allocated %d bytes", len(short), big, a)
			}

			p := d.New(8)
			var w ckpt.Writer
			d.WriteState(p, d.Init(p, d.Inits[0], rng.New(1)), &w)
			if _, err := d.ReadState(d.New(9), 9, ckpt.NewReader(w.Bytes())); err == nil {
				t.Error("population mismatch accepted")
			}
			for k := 0; k < w.Len(); k++ {
				if _, err := d.ReadState(d.New(8), 8, ckpt.NewReader(w.Bytes()[:k])); err == nil {
					t.Fatalf("section truncated to %d of %d bytes accepted", k, w.Len())
				}
			}
		},
	}
}

func TestDescriptorStateFields(t *testing.T) {
	cases := stateCodecCases()
	if len(cases) != len(registry) {
		t.Fatalf("%d state-codec cases, %d registered protocols", len(cases), len(registry))
	}
	for i, c := range cases {
		if Protocol(c.name) != registry[i].Protocol {
			t.Fatalf("case %d is %q, registry entry %d is %q", i, c.name, i, registry[i].Protocol)
		}
		t.Run(c.name, c.fields)
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	for _, c := range stateCodecCases() {
		t.Run(c.name, c.roundTrip)
	}
}

func TestStateCodecRejects(t *testing.T) {
	for _, c := range stateCodecCases() {
		t.Run(c.name, c.rejects)
	}
}
