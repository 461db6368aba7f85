package ssrank

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"testing"

	"ssrank/internal/baseline/aware"
	"ssrank/internal/baseline/cai"
	"ssrank/internal/baseline/interval"
	"ssrank/internal/baseline/sudo"
	"ssrank/internal/ckpt"
	"ssrank/internal/core"
	"ssrank/internal/proto"
	"ssrank/internal/sim/engine"
	"ssrank/internal/stable"
)

const checkpointTrajectoriesGolden = "testdata/checkpoint_trajectories.golden.json"

// TestCheckpointTrajectories pins the runs of
// TestGoldenCheckpointDigests independently of the checkpoint format:
// each digest (trajectoryDigest) covers everything the checkpoint
// holds except its version and the bytes of the agent slab, which it
// replaces by each agent's canonical view. A change of an agent
// state's memory layout or of the slab codec re-records the byte-level
// digests and leaves these alone. Regenerate with
//
//	go test -run TestCheckpointTrajectories -update .
//
// only for an intentional trajectory change.
func TestCheckpointTrajectories(t *testing.T) {
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(checkpointTrajectoriesGolden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", checkpointTrajectoriesGolden, err)
		}
	}
	got := map[string]string{}
	for _, d := range Descriptors() {
		for _, init := range d.Inits {
			for _, shards := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/shards=%d", d.Protocol, init, shards)
				s, err := NewSimulation(Config{N: 64, Protocol: d.Protocol, Init: init, Seed: 9, Shards: shards})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s.Step(checkpointCut(s.Config()))
				data, err := s.Checkpoint()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got[name], err = trajectoryDigest(data); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !*update && got[name] != want[name] {
					t.Errorf("%s: trajectory digest %s, golden %s", name, got[name], want[name])
				}
			}
		}
	}
	if *update {
		var out bytes.Buffer
		out.WriteString("{\n")
		for i, name := range slices.Sorted(maps.Keys(got)) {
			if i > 0 {
				out.WriteString(",\n")
			}
			fmt.Fprintf(&out, "%q: %q", name, got[name])
		}
		out.WriteString("\n}\n")
		if err := os.WriteFile(checkpointTrajectoriesGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(got) != len(want) {
		t.Errorf("%d trajectory digests, golden has %d", len(got), len(want))
	}
}

// trajectoryDigest walks a checkpoint as ResumeSimulation does and
// hashes the raw bytes from the protocol name to the end of the engine
// streams (identity, fault stream, engine kind, hit, steps and every
// stream position), then the instrumentation vector and each agent's
// canonical view: stable.Canonical for StableRanking, the field names
// and values (%+v) for every other protocol.
func trajectoryDigest(data []byte) (string, error) {
	r := ckpt.NewReader(data)
	r.Expect([]byte(ckptMagic))
	r.Uvarint() // version
	start := len(data) - r.Remaining()
	protocol := Protocol(r.String())
	_ = r.String() // init
	n := r.Count(math.MaxInt32)
	r.U64() // seed
	epsilon := r.F64()
	r.Uvarint() // shards
	for range 4 {
		r.U64() // fault stream
	}
	switch kind := r.Uvarint(); kind {
	case engine.KindSerial:
		r.Varint() // hit
		r.Varint() // steps
		ckpt.ReadPairState(r)
	case engine.KindShard:
		r.Varint()
		r.Varint()
		ckpt.ReadShardStreams(r, n, n)
	default:
		return "", fmt.Errorf("engine kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(data[start : len(data)-r.Remaining()])
	var w ckpt.Writer
	var err error
	switch protocol {
	case StableRanking:
		err = canonicalState(stable.Describe(), n, r, &w, func(s *stable.State) string { return fmt.Sprint(stable.Canonical(s)) })
	case SpaceEfficient:
		err = canonicalState(core.Describe(), n, r, &w, nil)
	case Cai:
		err = canonicalState(cai.Describe(), n, r, &w, nil)
	case Aware:
		err = canonicalState(aware.Describe(), n, r, &w, nil)
	case Interval:
		err = canonicalState(interval.Describe(epsilon), n, r, &w, nil)
	case Loose:
		err = canonicalState(sudo.Describe(sudo.DefaultTimeoutFactor), n, r, &w, nil)
	default:
		err = fmt.Errorf("protocol %q", protocol)
	}
	if err != nil {
		return "", err
	}
	if err := r.Close(); err != nil {
		return "", err
	}
	h.Write(w.Bytes())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalState decodes a state section of n agents and appends the
// instrumentation vector and each agent's view to w; a nil view is
// %+v.
func canonicalState[S any, P any](d proto.Descriptor[S, P], n int, r *ckpt.Reader, w *ckpt.Writer, view func(*S) string) error {
	p := d.New(n)
	states, err := d.ReadState(p, n, r)
	if err != nil {
		return err
	}
	if d.Instr != nil {
		for _, v := range d.Instr(p) {
			w.Varint(v)
		}
	}
	for i := range states {
		if view != nil {
			w.String(view(&states[i]))
		} else {
			w.String(fmt.Sprintf("%+v", states[i]))
		}
	}
	return nil
}
