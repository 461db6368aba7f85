package ssrank

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ssrank/internal/ckpt"
	"ssrank/internal/sim/engine"
	"ssrank/internal/sim/shard"
)

// checkpointCut returns a mid-run cut point for the given config:
// arbitrary on the serial engine (any interaction boundary is a valid
// cut), batch-aligned on the sharded engine (the trajectory depends on
// where barriers fall, so only barrier-aligned cuts preserve
// Run-equivalence — see shard.BatchPeriod).
func checkpointCut(cfg Config) int64 {
	if cfg.Shards > 1 {
		return 3 * int64(shard.BatchPeriod(cfg.N))
	}
	return 1037
}

// TestCheckpointSplitRunEquivalence is the tentpole guarantee: for
// every registered protocol, on both in-place engines, a run
// interrupted at step k, checkpointed, resumed in a fresh Simulation
// and driven to completion is byte-identical — final ranks, exact
// hitting time, reset counters, full Result — to the uninterrupted
// run, which in turn matches Run(cfg).
func TestCheckpointSplitRunEquivalence(t *testing.T) {
	for _, engine := range []struct {
		name   string
		shards int
	}{{"serial", 1}, {"sharded", 4}} {
		for _, proto := range Protocols() {
			engine, proto := engine, proto
			t.Run(engine.name+"/"+string(proto), func(t *testing.T) {
				cfg := Config{N: 64, Protocol: proto, Seed: 3, Shards: engine.shards}
				base, err := Run(cfg)
				if err != nil {
					if errors.Is(err, ErrNotConverged) {
						t.Skipf("%s did not converge on this seed", proto)
					}
					t.Fatal(err)
				}
				budget := base.Config.MaxInteractions

				// The uninterrupted Simulation must match Run exactly.
				whole, err := NewSimulation(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !whole.RunUntilStable(budget) {
					t.Fatal("uninterrupted simulation did not stabilize")
				}
				if got := whole.Result(); !reflect.DeepEqual(got, base) {
					t.Fatalf("uninterrupted Simulation diverged from Run:\nsim %+v\nrun %+v", got, base)
				}

				// Interrupt at k, checkpoint, resume, finish.
				split, err := NewSimulation(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if k := checkpointCut(split.Config()); !split.RunUntilStable(k) {
					data, err := split.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					resumed, err := ResumeSimulation(cfg, data)
					if err != nil {
						t.Fatal(err)
					}
					split = resumed
					if !split.RunUntilStable(budget) {
						t.Fatal("resumed simulation did not stabilize")
					}
				}
				if got := split.Result(); !reflect.DeepEqual(got, base) {
					t.Fatalf("split run diverged from uninterrupted run:\nsplit %+v\nrun   %+v", got, base)
				}

				// Checkpointing the terminal state round-trips too: the
				// recorded exact hitting time survives serialization.
				data, err := split.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				reloaded, err := ResumeSimulation(cfg, data)
				if err != nil {
					t.Fatal(err)
				}
				if got := reloaded.Result(); !reflect.DeepEqual(got, base) {
					t.Fatalf("terminal checkpoint diverged:\nreloaded %+v\nrun      %+v", got, base)
				}
			})
		}
	}
}

// TestCheckpointCanonicalBytes pins that the encoding is canonical:
// resuming a checkpoint and immediately checkpointing again reproduces
// the identical byte string, for every protocol on both engines.
func TestCheckpointCanonicalBytes(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, proto := range Protocols() {
			cfg := Config{N: 64, Protocol: proto, Seed: 9, Shards: shards}
			s, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Step(checkpointCut(s.Config()))
			data, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeSimulation(cfg, data)
			if err != nil {
				t.Fatalf("%s/%d: %v", proto, shards, err)
			}
			again, err := resumed.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("%s/%d shards: resume+checkpoint changed the bytes (%d vs %d)", proto, shards, len(data), len(again))
			}
		}
	}
}

// TestCheckpointStateRoundTrip verifies the restored simulation holds
// exactly the captured configuration before any further execution —
// snapshot, interaction count, instrumentation counters.
func TestCheckpointStateRoundTrip(t *testing.T) {
	for _, proto := range Protocols() {
		cfg := Config{N: 48, Protocol: proto, Seed: 5}
		s, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Step(2500)
		data, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		r, err := ResumeSimulation(cfg, data)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Interactions(), s.Interactions(); got != want {
			t.Fatalf("%s: restored %d interactions, want %d", proto, got, want)
		}
		if got, want := r.Snapshot(), s.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored snapshot diverged:\ngot  %+v\nwant %+v", proto, got, want)
		}
		if got, want := r.ResetBreakdown(), s.ResetBreakdown(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored reset breakdown %v, want %v", proto, got, want)
		}
	}
}

// TestCheckpointFaultStreamSurvives pins that the fault-injection
// stream position is part of the checkpoint: the same sequence of
// fault calls after a resume draws the same agents an uninterrupted
// handle would draw.
func TestCheckpointFaultStreamSurvives(t *testing.T) {
	cfg := Config{N: 64, Seed: 11}
	a, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Step(1000)
	if err := a.Corrupt(5); err != nil { // advance the fault stream
		t.Fatal(err)
	}
	data, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResumeSimulation(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	as, ad, err := a.Duplicate()
	if err != nil {
		t.Fatal(err)
	}
	bs, bd, err := b.Duplicate()
	if err != nil {
		t.Fatal(err)
	}
	if as != bs || ad != bd {
		t.Fatalf("fault stream diverged after resume: (%d,%d) vs (%d,%d)", as, ad, bs, bd)
	}
}

// TestResumeSimulationRejects covers the identity and integrity
// checks: a checkpoint only resumes under the configuration it was
// taken from, and malformed bytes fail loudly instead of decoding into
// a plausible state.
func TestResumeSimulationRejects(t *testing.T) {
	cfg := Config{N: 64, Seed: 3}
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(1000)
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		cfg  Config
	}{
		{"wrong seed", Config{N: 64, Seed: 4}},
		{"wrong n", Config{N: 32, Seed: 3}},
		{"wrong protocol", Config{N: 64, Seed: 3, Protocol: Cai}},
		{"wrong shards", Config{N: 64, Seed: 3, Shards: 4}},
		{"message network", Config{N: 64, Seed: 3, Scheduler: SchedulerUniform}},
	}
	for _, tc := range bad {
		if _, err := ResumeSimulation(tc.cfg, data); err == nil {
			t.Errorf("%s: resume accepted a mismatched checkpoint", tc.name)
		}
	}

	if _, err := ResumeSimulation(cfg, data[:len(data)-3]); err == nil {
		t.Error("truncated checkpoint resumed without error")
	}
	if _, err := ResumeSimulation(cfg, append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("checkpoint with trailing garbage resumed without error")
	}
	mangled := append([]byte(nil), data...)
	mangled[1] ^= 0xff
	if _, err := ResumeSimulation(cfg, mangled); err == nil {
		t.Error("mangled magic resumed without error")
	}

	// Message-network simulations refuse to checkpoint in the first
	// place.
	ms, err := NewSimulation(Config{N: 64, Seed: 3, Scheduler: SchedulerRing})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Checkpoint(); err == nil {
		t.Error("message-network simulation produced a checkpoint")
	}
}

// TestResumeRejectsRetiredShardV1 pins the engine-kind versioning: a
// blob carrying the retired pre-alias sharded layout (kind 1) names a
// trajectory this build's scheduler cannot reproduce, so resume must
// refuse it with a targeted message — not decode it into a plausible
// but different run. The blob is forged from a current sharded
// checkpoint by locating the engine-kind byte through a header re-parse
// (position, not guesswork) and rewriting it to the retired kind.
func TestResumeRejectsRetiredShardV1(t *testing.T) {
	cfg := Config{N: 64, Seed: 3, Shards: 4}
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(1024)
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Walk the header exactly as ResumeSimulation does; what remains
	// starts at the engine-kind uvarint.
	r := ckpt.NewReader(data)
	r.Expect([]byte("sscp"))
	r.Uvarint()    // version
	_ = r.String() // protocol
	_ = r.String() // init
	r.Uvarint()    // n
	r.U64()        // seed
	r.F64()        // epsilon
	r.Uvarint()    // shards
	for i := 0; i < 4; i++ {
		r.U64() // fault stream
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	kindOff := len(data) - r.Remaining()
	if data[kindOff] != engine.KindShard {
		t.Fatalf("engine kind byte is %d, want %d", data[kindOff], engine.KindShard)
	}

	forged := append([]byte(nil), data...)
	forged[kindOff] = engine.KindShardV1
	_, err = ResumeSimulation(cfg, forged)
	if err == nil {
		t.Fatal("resume accepted a retired v1 sharded checkpoint")
	}
	if !strings.Contains(err.Error(), "retired v1 sharded engine layout") {
		t.Fatalf("v1 reject error does not identify the retired layout: %v", err)
	}

	// The unforged blob still resumes: the reject is the kind, not the
	// surgery.
	if _, err := ResumeSimulation(cfg, data); err != nil {
		t.Fatalf("current-kind checkpoint failed to resume: %v", err)
	}
}

// FuzzResumeSimulation feeds ResumeSimulation arbitrary bytes under a
// fixed set of configurations (which picks one): the seed corpus is the
// golden fixture plus a mid-run checkpoint of every protocol on both
// in-place engines. Properties: no input panics, and any input that is
// accepted re-checkpoints to the identical bytes (one state, one byte
// string). Plain go test runs the seeds; CI fuzzes with
//
//	go test -run '^$' -fuzz '^FuzzResumeSimulation$' -fuzztime 20s .
func FuzzResumeSimulation(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "stable_n16_seed1_step1037.sscp"))
	if err != nil {
		f.Fatal(err)
	}
	cfgs := []Config{goldenConfig()}
	f.Add(uint8(0), fixture)
	for _, p := range Protocols() {
		for _, shards := range []int{1, 4} {
			cfg := Config{N: 32, Protocol: p, Seed: 2, Shards: shards}
			s, err := NewSimulation(cfg)
			if err != nil {
				f.Fatal(err)
			}
			s.Step(checkpointCut(s.Config()))
			data, err := s.Checkpoint()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(len(cfgs)), data)
			cfgs = append(cfgs, cfg)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		s, err := ResumeSimulation(cfgs[int(which)%len(cfgs)], data)
		if err != nil {
			return
		}
		again, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-checkpoint: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-checkpoint to %d different bytes", len(data), len(again))
		}
	})
}
