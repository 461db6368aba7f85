package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ssrank/internal/ckpt"
	"ssrank/internal/sim/slab"
	"ssrank/internal/stable"
)

// largeRuns are StableRanking runs at populations whose slabs are far
// larger than any golden's. The 2¹⁸-agent runs are past the fetch gate
// (slab.FetchBytes), so the serial loops, the shard units and the
// sharded fold all run with each window's agent lines fetched first;
// the 2¹⁶- and 2¹⁷-agent runs pin the runs below it. Each digest
// covers the checkpoint engine section after the run — the step count,
// every stream position, the agent slab and the reset counters —
// together with the exact stop's outcome. The 2¹⁶- and 2¹⁷-agent
// digests were recorded before the loops learned to fetch and before
// the sharded fold moved from a shadow copy onto the live slab, the
// 2¹⁸-agent ones with the 40-byte StableRanking state; none may ever
// move.
var largeRuns = []struct {
	name   string
	n      int
	init   string
	shards int
	// exact runs the tracked stop loop (RunUntilStable) instead of Run.
	exact bool
	want  string
}{
	{"fresh n=2^17 serial", 1 << 17, "fresh", 1, false, "e6cae9fb1f5bd60992c18604eb802962030b1e2c0aaf876767796c2064477e7d"},
	{"fresh n=2^17 shards=2", 1 << 17, "fresh", 2, false, "0b6b64c37ee80e36f0d5817d8f644c265e400e2c7134265318c49ebf4c443139"},
	{"fresh n=2^17 shards=4", 1 << 17, "fresh", 4, false, "1986c2995e8943c70a5f7a7777d30303c7b7ae8c0b1bfa3ae74de04c98d598cf"},
	{"worst-case n=2^16 serial exact", 1 << 16, "worst-case", 1, true, "4368474e9dda8c5b7c2301a3cdc1ac53805cd28b916f1505b31be3eac7424809"},
	{"worst-case n=2^16 shards=4 exact", 1 << 16, "worst-case", 4, true, "95becc4c5b9e9aff4ef3fe92de6f966ada3db2ea993e781af7d0b481670c6306"},
	{"worst-case n=2^17 serial exact", 1 << 17, "worst-case", 1, true, "2d29f8e9bed4727ae90cd3fe27dc042c25fd6e75793cce8f6b6de29b34cbdfb4"},
	{"worst-case n=2^17 shards=2 exact", 1 << 17, "worst-case", 2, true, "02ad5f0f3d54e2694c193b40f326a627cadf41c030d367022482c7b62409fb23"},
	// From random states almost every early interaction moves a rank, so
	// the fold replays records of agents the batch touches again later.
	{"random n=2^16 shards=4 exact", 1 << 16, "random", 4, true, "0b23b16c39a7c26a4f3a1ef4c978da23e2d6df89e2e723a77266d77eed9bfe39"},
	{"random n=2^17 shards=2 exact", 1 << 17, "random", 2, true, "d8e7039c869fb72b472577d51c9820a04459ab437357b8cf53f7982259f72ee4"},
	{"fresh n=2^18 serial", 1 << 18, "fresh", 1, false, "2609be221f111350c9a041f16642194b3c9fd5a16292082cdee0eeb477cfefda"},
	{"fresh n=2^18 shards=2", 1 << 18, "fresh", 2, false, "cf8697bc4f07e3edddfeb6efb6a676f2702ba22dac2be6d3852fab4f42f8e61c"},
	{"fresh n=2^18 shards=4", 1 << 18, "fresh", 4, false, "a50b9302f7728688a1ad7bca91609de99994f40333a28d13370b0c947c19baaa"},
	{"worst-case n=2^18 serial exact", 1 << 18, "worst-case", 1, true, "514f8dc533e81b6835c1133dc9f5f6e3e153a9e94ebdeedcbf64b851cd76d39f"},
	{"worst-case n=2^18 shards=4 exact", 1 << 18, "worst-case", 4, true, "13a8af79b3e58f565c00c09fa2ed4a093a635f5404803a3b9eeae75a8900a29c"},
	{"random n=2^18 shards=4 exact", 1 << 18, "random", 4, true, "e6b1ea1bfe362c70e820085b848114feab72710e899f16160a7aeca450d0187d"},
}

// largeRunSteps is every large run's interaction budget.
const largeRunSteps = 1_000_000

func TestLargeRunDigests(t *testing.T) {
	if !slab.Fetches[stable.State](1 << 18) {
		t.Fatalf("a slab of 2^18 StableRanking agents is below the fetch gate of %d B: the digests no longer cover the fetch", slab.FetchBytes)
	}
	d := stable.Describe()
	for _, tc := range largeRuns {
		e, err := New(d, tc.n, tc.init, Knobs{Seed: 11, Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		hit, ok := int64(-1), false
		if tc.exact {
			hit, ok = e.RunUntilStable(largeRunSteps, largeRunSteps)
		} else {
			e.Run(largeRunSteps)
		}
		var w ckpt.Writer
		if err := e.Checkpoint(&w, hit); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%v ", ok)
		h.Write(w.Bytes())
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: digest %s, want %s (steps %d, hit %d, stable %v)", tc.name, got, tc.want, e.Steps(), hit, ok)
		}
	}
}
