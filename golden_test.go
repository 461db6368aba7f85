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
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ssrank/internal/ckpt"
	"ssrank/internal/sim/engine"
)

// goldenConfig is the configuration the committed fixture was taken
// from: the stable-ranking protocol, N=16, seed 1, interrupted after
// exactly 1037 interactions.
func goldenConfig() Config { return Config{N: 16, Seed: 1} }

const goldenSteps = 1037

// checkpointFixture is the committed checkpoint of goldenConfig after
// goldenSteps interactions. checkpointFixtureV1 and checkpointFixtureV2
// are the same run in the retired formats: version 1 stored a 24-byte
// StableRanking agent as 12 fields, version 2 an 8-byte tagged union
// as 4.
var (
	checkpointFixture   = filepath.Join("testdata", "stable_n16_seed1_step1037.sscp")
	checkpointFixtureV1 = filepath.Join("testdata", "stable_n16_seed1_step1037_v1.sscp")
	checkpointFixtureV2 = filepath.Join("testdata", "stable_n16_seed1_step1037_v2.sscp")
)

// TestGoldenCheckpointBytes pins the on-disk checkpoint format against
// a committed fixture. A checkpoint produced today from the fixture's
// configuration must be byte-identical to the committed one: any codec
// or layout change — even one that still round-trips — breaks this
// test, forcing a deliberate version bump instead of a silent format
// drift that would orphan previously saved checkpoints. Regenerate with
//
//	go test -run TestGoldenCheckpointBytes -update .
//
// only together with a version bump.
func TestGoldenCheckpointBytes(t *testing.T) {
	s, err := NewSimulation(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Step(goldenSteps)
	got, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(checkpointFixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(checkpointFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes drifted from the golden fixture (%d bytes, fixture %d); if the format change is intentional, bump the checkpoint version and regenerate the fixture", len(got), len(want))
	}
}

// TestGoldenCheckpointDecodes walks the fixture's header field by
// field with the ckpt reader, asserting the documented layout: magic,
// version, identity fields, fault-stream state, engine kind and
// progress counters. This is the one test that reads the format
// directly rather than through ResumeSimulation, so a decoder written
// against DESIGN.md alone can be checked against it.
func TestGoldenCheckpointDecodes(t *testing.T) {
	data, err := os.ReadFile(checkpointFixture)
	if err != nil {
		t.Fatal(err)
	}
	r := ckpt.NewReader(data)
	r.Expect([]byte(ckptMagic))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if v := r.Uvarint(); v != ckptVersion {
		t.Fatalf("version %d, want %d", v, ckptVersion)
	}
	if p := r.String(); p != string(StableRanking) {
		t.Fatalf("protocol %q", p)
	}
	if init := r.String(); init != "fresh" {
		t.Fatalf("init %q", init)
	}
	if n := r.Uvarint(); n != 16 {
		t.Fatalf("n %d", n)
	}
	if seed := r.U64(); seed != 1 {
		t.Fatalf("seed %d", seed)
	}
	if eps := r.U64(); eps != math.Float64bits(1.0) {
		t.Fatalf("epsilon bits %#x", eps)
	}
	if shards := r.Uvarint(); shards != 1 {
		t.Fatalf("shards %d", shards)
	}
	for i := 0; i < 4; i++ {
		r.U64() // fault rng words: opaque, but must be present
	}
	if kind := r.Uvarint(); kind != engine.KindSerial {
		t.Fatalf("kind %d, want serial (%d)", kind, engine.KindSerial)
	}
	if hit := r.Varint(); hit != -1 {
		t.Fatalf("hit %d, want -1 (Step invalidates the exact hit)", hit)
	}
	if steps := r.Varint(); steps != goldenSteps {
		t.Fatalf("steps %d, want %d", steps, goldenSteps)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() == 0 {
		t.Fatal("no pair-stream or protocol payload after the header")
	}
}

// TestGoldenCheckpointResumes proves the committed bytes are live, not
// just well-formed: resuming the fixture and running to stability
// yields exactly the Result of an uninterrupted Run.
func TestGoldenCheckpointResumes(t *testing.T) {
	data, err := os.ReadFile(checkpointFixture)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ResumeSimulation(goldenConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Interactions() != goldenSteps {
		t.Fatalf("resumed at %d interactions, want %d", s.Interactions(), goldenSteps)
	}
	want, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilStable(want.Config.MaxInteractions) {
		t.Fatal("resumed run did not stabilize")
	}
	got := s.Result()
	if got.Interactions != want.Interactions {
		t.Fatalf("resumed hit %d, uninterrupted run hit %d", got.Interactions, want.Interactions)
	}
	if !equalRanks(got.Ranks, want.Ranks) {
		t.Fatalf("resumed ranks %v, want %v", got.Ranks, want.Ranks)
	}
}

// TestGoldenCheckpointRejectsOverlongVarint pins canonical decoding:
// the fixture with its version varint zero-padded (0x01 → 0x81 0x00)
// names the same state in a second byte string, so it must be
// rejected rather than resumed.
func TestGoldenCheckpointRejectsOverlongVarint(t *testing.T) {
	data, err := os.ReadFile(checkpointFixture)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(ckptMagic)] != ckptVersion {
		t.Fatalf("fixture version byte %#x", data[len(ckptMagic)])
	}
	padded := append([]byte(ckptMagic), 0x80|ckptVersion, 0x00)
	padded = append(padded, data[len(ckptMagic)+1:]...)
	if _, err := ResumeSimulation(goldenConfig(), padded); err == nil {
		t.Fatal("checkpoint with an overlong version varint accepted")
	}
}

// TestGoldenCheckpointRefusesV1 pins the refusal of the retired
// version-1 format, whose slab stored each StableRanking agent as the
// 12 fields of the 24-byte state: the committed v1 fixture is refused
// with an error naming its version, not decoded into another state.
func TestGoldenCheckpointRefusesV1(t *testing.T) {
	checkRefusedVersion(t, checkpointFixtureV1, 1)
}

// TestGoldenCheckpointRefusesV2 does the same for version 2, whose slab
// stored each StableRanking agent as the 4 fields of the 8-byte tagged
// union.
func TestGoldenCheckpointRefusesV2(t *testing.T) {
	checkRefusedVersion(t, checkpointFixtureV2, 2)
}

func checkRefusedVersion(t *testing.T, fixture string, version byte) {
	t.Helper()
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(ckptMagic)] != version {
		t.Fatalf("v%d fixture version byte %#x", version, data[len(ckptMagic)])
	}
	_, err = ResumeSimulation(goldenConfig(), data)
	if want := fmt.Sprintf("checkpoint version %d,", version); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v%d checkpoint: error %v, want one naming version %d", version, err, version)
	}
}

func equalRanks(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const checkpointDigestsGolden = "testdata/checkpoint_digests.golden.json"

// TestGoldenCheckpointDigests pins every protocol's checkpoint bytes,
// not just the stable fixture's: the SHA-256 of Checkpoint() for each
// protocol × init on both in-place engines (N=64, seed 9, cut at
// checkpointCut), against testdata/checkpoint_digests.golden.json.
// Regenerate with
//
//	go test -run TestGoldenCheckpointDigests -update .
//
// only for an intentional format change, together with a version bump.
func TestGoldenCheckpointDigests(t *testing.T) {
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(checkpointDigestsGolden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", checkpointDigestsGolden, err)
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
				sum := sha256.Sum256(data)
				got[name] = hex.EncodeToString(sum[:])
				if !*update && got[name] != want[name] {
					t.Errorf("%s: checkpoint digest %s, golden %s", name, got[name], want[name])
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
		if err := os.WriteFile(checkpointDigestsGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(got) != len(want) {
		t.Errorf("%d checkpoint digests, golden has %d", len(got), len(want))
	}
}
