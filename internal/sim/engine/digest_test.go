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
// larger than any golden's. The 2²⁰-agent runs are past the fetch gate
// (slab.FetchBytes), so the serial loops, the shard units and the
// sharded fold all run with each window's agent lines fetched first;
// the smaller runs pin the runs below it. Each digest covers the
// checkpoint engine section after the run — the step count, every
// stream position, the agent slab and the reset counters — together
// with the exact stop's outcome. All were re-recorded when the agent
// became the 8-byte tagged union, whose slab codec writes 4 fields per
// agent instead of 12; largeRunTrajectories, recorded before, shows
// that no trajectory moved. A digest may move only with the slab's
// bytes, never with the trajectory.
var largeRuns = []struct {
	name   string
	n      int
	init   string
	shards int
	// exact runs the tracked stop loop (RunUntilStable) instead of Run.
	exact bool
	want  string
}{
	{"fresh n=2^17 serial", 1 << 17, "fresh", 1, false, "7e6d7c15f1779e175efc34316065448b05a7af8924655bc52b3d6cc7034fcf4d"},
	{"fresh n=2^17 shards=2", 1 << 17, "fresh", 2, false, "5d9097d8276d76c2388f2ebd86897b5675d10f6a3655d6cdfa84c056967eca54"},
	{"fresh n=2^17 shards=4", 1 << 17, "fresh", 4, false, "9df86751dccf30818eaa30eb1d3ecf77529847ddc2fd8e304e8ba83d67e52482"},
	{"worst-case n=2^16 serial exact", 1 << 16, "worst-case", 1, true, "e2953f8e4515f44d47c1f165d158935078894a5ebd57198dfde7aafcf7940dc9"},
	{"worst-case n=2^16 shards=4 exact", 1 << 16, "worst-case", 4, true, "fdb51d4fe408279ed05163371984dce4b23b16ac751e09e4c678e96d7d9303c3"},
	{"worst-case n=2^17 serial exact", 1 << 17, "worst-case", 1, true, "118d396b95068a3cc4dec9c0c9119b64be896e7c0c9efcd490f8b03a7ea60792"},
	{"worst-case n=2^17 shards=2 exact", 1 << 17, "worst-case", 2, true, "f09fe487299fb9024adc79776d69f724aabc3b5a8d28243e00212e7a31c588ad"},
	// From random states almost every early interaction moves a rank, so
	// the fold replays records of agents the batch touches again later.
	{"random n=2^16 shards=4 exact", 1 << 16, "random", 4, true, "2e69b29fe33368d29d2be556d1d990f9ce4914ed26b3478e3eb6e02a36b981b3"},
	{"random n=2^17 shards=2 exact", 1 << 17, "random", 2, true, "9b5a4ce70f3596b97a8eb737fcf6c2f1b4ce4a38e3199a0f95f54f554437d5c2"},
	{"fresh n=2^18 serial", 1 << 18, "fresh", 1, false, "e106d165c3bfa475f1baefb099d6e317581da78d59f0e1d747c1e3962c8e556c"},
	{"fresh n=2^18 shards=2", 1 << 18, "fresh", 2, false, "ec23fcac49cb8c0668c2cc2a2a20e9dbd9c3febe62cf6964fb6a69565c052494"},
	{"fresh n=2^18 shards=4", 1 << 18, "fresh", 4, false, "c81db23f9c039e26e8f78f3a850d8acde7025038888a03c0f623a0e8d2e9871e"},
	{"worst-case n=2^18 serial exact", 1 << 18, "worst-case", 1, true, "c965cb0b719db3022f9002b678eed93a748bd25d5942def0e6eac59c4e1952f5"},
	{"worst-case n=2^18 shards=4 exact", 1 << 18, "worst-case", 4, true, "cd54198aefe68efc258ff16dce25fac23f2f626825d7524565bb823d0d8565ff"},
	{"random n=2^18 shards=4 exact", 1 << 18, "random", 4, true, "53d5e82de1cb3f51d625584bbbe8a6346a2380746d281cec92e1b8f466769130"},
	{"fresh n=2^20 serial", 1 << 20, "fresh", 1, false, "81d28fa4e9b47ad9311d13fefdae6427f8df07a9eef73976363a6a468367be4d"},
	{"fresh n=2^20 shards=4", 1 << 20, "fresh", 4, false, "e560fd298310c5d653cf191ffcce303dca665538aba58e77c470b5eea27335e6"},
	{"worst-case n=2^20 shards=4 exact", 1 << 20, "worst-case", 4, true, "93c540a1ae34661d9a8c448a72db46c70daaab5b4c9b99b531b168c8af309bb3"},
}

// largeRunSteps is every large run's interaction budget.
const largeRunSteps = 1_000_000

func TestLargeRunDigests(t *testing.T) {
	fetchN := 0
	for _, tc := range largeRuns {
		fetchN = max(fetchN, tc.n)
	}
	if !slab.Fetches[stable.State](fetchN) {
		t.Fatalf("a slab of %d StableRanking agents is below the fetch gate of %d B: the digests no longer cover the fetch", fetchN, slab.FetchBytes)
	}
	for _, tc := range largeRuns {
		e, hit, ok := runLarge(t, tc.n, tc.init, tc.shards, tc.exact)
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

// largeRunTrajectories pins largeRuns' trajectories independently of
// how StableRanking lays out an agent: each digest covers the exact
// stop's outcome, the engine kind, the recorded hit, the step count,
// every stream position, the reset counters and each agent's
// stable.Canonical view, so a change of the state's memory layout or
// of the slab codec leaves it alone while the byte-level digest of
// TestLargeRunDigests moves. Recorded with the 24-byte state, and
// unchanged by the 8-byte one.
var largeRunTrajectories = map[string]string{
	"fresh n=2^17 serial":              "9aaf247062e6c296d7b5e0f7d6a77c259ed86987d9c8bc6bfa0fc3b7c515aea7",
	"fresh n=2^17 shards=2":            "cf826e095338a4c475d84aa5f36379f25f84fc4b8bb5d21537315c6df8eb0d9f",
	"fresh n=2^17 shards=4":            "e2a30bcaf2c58b9576cbd44367953f5908d8e72eb86580df717bb36f484fda85",
	"worst-case n=2^16 serial exact":   "869e363a666d29780496c48c926ddc79a59feed4e573772fc5f330472ecdd24a",
	"worst-case n=2^16 shards=4 exact": "0a7facb1e34c8f14ba526eb5fc505161c87dbef5450bf753c05be5e603229793",
	"worst-case n=2^17 serial exact":   "4eb970dbc1ebe1621416015b96291be1a74d2181ce5c1ed53d2c4652d6c7418d",
	"worst-case n=2^17 shards=2 exact": "e6e643efe032528a9c66ba3056b4b74f43437f8c6f1b62fbe1abf680009f0da8",
	"random n=2^16 shards=4 exact":     "563819c50bddd0d1fe1bed6ea5034293172cdb770f83d471a7c3b7afb1031624",
	"random n=2^17 shards=2 exact":     "498a7ae8ac5d06f113c3e69b13508f1fcdabb28ca5331b4111b9666b3cdc345f",
	"fresh n=2^18 serial":              "f7d3542b4d447783380dc86e11d1f92c847a2aef8f53a7843af14073251fdc99",
	"fresh n=2^18 shards=2":            "3f8e8380dada9ecf3d71710ab61df1bf2f3ab2140c48216386bf0d344a90cab2",
	"fresh n=2^18 shards=4":            "84db5bce4b5e58aacbecb0e7994c920c8587e2d1fc24bc8e2c39ca69a6735c21",
	"worst-case n=2^18 serial exact":   "44bbd9511e86d9dedae41d1a951729211616cb4b969a609e4918c96d2477b370",
	"worst-case n=2^18 shards=4 exact": "bd0dbd8b75df680c017786c8ecfba4dfafc1b5b89f8676168e23861023d57836",
	"random n=2^18 shards=4 exact":     "aba4394f1ce55c0af69156785c96ba1dbf7046590e989cd8f1e10fa06eb4c8fd",
	"fresh n=2^20 serial":              "7585ecf45e3b7b2e48657827b2d793b78d66e3e98d55ad0235db87160a0016d3",
	"fresh n=2^20 shards=4":            "f02810e050303e9fd5f8dd040a49ae469dc292bd5b898ff8af7ddd747a1db87c",
	"worst-case n=2^20 shards=4 exact": "d333d01897a0ae21c9d63b14031db268424c6138692a383f6ea3da84dd9bc192",
}

func TestLargeRunTrajectories(t *testing.T) {
	for _, tc := range largeRuns {
		e, hit, ok := runLarge(t, tc.n, tc.init, tc.shards, tc.exact)
		kind, write, err := e.streams()
		if err != nil {
			t.Fatal(err)
		}
		var w ckpt.Writer
		w.Uvarint(kind)
		w.Varint(hit)
		w.Varint(e.Steps())
		write(&w)
		for _, v := range stable.Instr(e.Protocol()) {
			w.Varint(v)
		}
		states := e.States()
		for i := range states {
			for _, v := range stable.Canonical(&states[i]) {
				w.Varint(v)
			}
		}
		h := sha256.New()
		fmt.Fprintf(h, "%v ", ok)
		h.Write(w.Bytes())
		if got := hex.EncodeToString(h.Sum(nil)); got != largeRunTrajectories[tc.name] {
			t.Errorf("%s: trajectory digest %s, want %s (steps %d, hit %d, stable %v)", tc.name, got, largeRunTrajectories[tc.name], e.Steps(), hit, ok)
		}
	}
}

// runLarge runs one StableRanking population from init for
// largeRunSteps interactions, through the tracked stop loop when exact,
// and returns the engine with the exact stop's outcome (-1, false when
// not exact).
func runLarge(t *testing.T, n int, init string, shards int, exact bool) (*Engine[stable.State, *stable.Protocol], int64, bool) {
	t.Helper()
	e, err := New(stable.Describe(), n, init, Knobs{Seed: 11, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	hit, ok := int64(-1), false
	if exact {
		hit, ok = e.RunUntilStable(largeRunSteps, largeRunSteps)
	} else {
		e.Run(largeRunSteps)
	}
	return e, hit, ok
}
