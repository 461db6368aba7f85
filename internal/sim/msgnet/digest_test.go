package msgnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"

	"ssrank/internal/baseline/cai"
	"ssrank/internal/proto"
	"ssrank/internal/sim"
	"ssrank/internal/stable"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const roundDigestsGolden = "testdata/round_digests.golden.json"

// digestRegimes are the fault regimes TestRoundDigests runs each
// scheduler under: a perfect network, every axis at once, and each
// axis that changes what a round delivers on its own.
var digestRegimes = []struct {
	name string
	f    Faults
}{
	{"none", Faults{}},
	{"lossy", Faults{Drop: 0.1, Dup: 0.1, DelayMax: 3, Reorder: 0.5}},
	{"dup0.3", Faults{Dup: 0.3}},
	{"drop1", Faults{Drop: 1}},
	{"delay5", Faults{DelayMax: 5}},
}

// roundDigest runs d's random initial configuration of n agents for
// rounds rounds under cfg and returns the SHA-256 of the configuration
// (each agent through view) and the counters after every round.
func roundDigest[S any, P sim.Protocol[S]](d proto.Descriptor[S, P], n, rounds int, cfg Config, view func(*S) any) string {
	p := d.New(n)
	nw := New[S](p, descInit(d, p, "random", cfg.Seed), cfg)
	h := sha256.New()
	for r := 0; r < rounds; r++ {
		nw.Round()
		for _, s := range nw.Snapshot() {
			fmt.Fprint(h, view(&s), " ")
		}
		fmt.Fprintf(h, "%+v\n", nw.Stats())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRoundDigests pins the network's trajectory round by round: for
// StableRanking and cai at n = 200, every scheduler under every
// digestRegimes entry, the digest of each of 80 rounds' configuration
// and counters, against testdata/round_digests.golden.json. A
// StableRanking agent is hashed through stable.Canonical, so a change
// of its memory layout leaves the digests alone. Regenerate with
//
//	go test ./internal/sim/msgnet -run TestRoundDigests -update
//
// only for an intentional change of what the network delivers.
func TestRoundDigests(t *testing.T) {
	const n, rounds = 200, 80
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(roundDigestsGolden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", roundDigestsGolden, err)
		}
	}
	got := map[string]string{}
	for _, sched := range Schedulers() {
		for _, reg := range digestRegimes {
			cfg := func() Config {
				s, err := NewScheduler(sched, n, 0, testSeed)
				if err != nil {
					t.Fatal(err)
				}
				return Config{Sched: s, Faults: reg.f, Seed: testSeed}
			}
			got["stable/"+sched+"/"+reg.name] = roundDigest(stable.Describe(), n, rounds, cfg(),
				func(s *stable.State) any { return stable.Canonical(s) })
			got["cai/"+sched+"/"+reg.name] = roundDigest(cai.Describe(), n, rounds, cfg(),
				func(s *cai.State) any { return *s })
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
		if err := os.WriteFile(roundDigestsGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, name := range slices.Sorted(maps.Keys(got)) {
		if got[name] != want[name] {
			t.Errorf("%s: round digest %s, golden %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d round digests, golden has %d", len(got), len(want))
	}
}

// BenchmarkNetworkRun measures the network's cost per delivered
// interaction: StableRanking from its fresh configuration at n = 4096
// on the uniform scheduler, one round per iteration, on a perfect
// network and with every fault axis on.
func BenchmarkNetworkRun(b *testing.B) {
	const n = 4096
	for _, reg := range []struct {
		name string
		f    Faults
	}{{"faults=off", Faults{}}, {"faults=on", Faults{Drop: 0.1, Dup: 0.1, DelayMax: 3, Reorder: 0.5}}} {
		b.Run(reg.name, func(b *testing.B) {
			d := stable.Describe()
			p := d.New(n)
			nw := New[stable.State](p, descInit(d, p, "fresh", 7), Config{Faults: reg.f, Seed: 7})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.Round()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(nw.Steps(), 1)), "ns/interaction")
		})
	}
}
