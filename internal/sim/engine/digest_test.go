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
// larger than any golden's. The 2²¹-agent runs are past the fetch gate
// (slab.FetchBytes) at any agent size of 4 bytes or more, so the serial
// loops, the shard units and the sharded fold all run with each
// window's agent lines fetched first; the smaller runs pin the runs
// below it. Each digest covers the
// checkpoint engine section after the run — the step count, every
// stream position, the agent slab and the reset counters — together
// with the exact stop's outcome. All were re-recorded when the agent
// became one 32-bit word, which the slab codec writes as one uvarint
// instead of the 8-byte tagged union's 4 fields, and the checkpoint
// version went to 3; largeRunTrajectories, recorded before, shows that
// no trajectory moved. A digest may move only with the slab's bytes,
// never with the trajectory.
//
// No row reaches its exact stop, and at these populations no start
// can within a budget that a test affords. The interaction that
// completes a ranking ranks the last unranked agent, and only an
// initiator whose rank may then change without a clash can do it: the
// sole holder of rank 1 in the last phase, or one of the two holders
// of a duplicated rank earlier. At most two ordered pairs qualify, so
// the wait is at least n(n−1)/2 ≈ 5.5·10¹¹ interactions in expectation
// at n = 2²⁰.
var largeRuns = []struct {
	name   string
	n      int
	init   string
	shards int
	// exact runs the tracked stop loop (RunUntilStable) instead of Run.
	exact bool
	want  string
}{
	{"fresh n=2^17 serial", 1 << 17, "fresh", 1, false, "0fa9ce36d5ae0bf99e5725ce7007d22d41e5f959eede02875c8b332b3d64f749"},
	{"fresh n=2^17 shards=2", 1 << 17, "fresh", 2, false, "9be1eb3adee7033a57db5497e9c12e7361c5c4b7ff5e3d8beae4d4ec125ec1d6"},
	{"fresh n=2^17 shards=4", 1 << 17, "fresh", 4, false, "1b40853c61b80a88ef669df0a2b27b58800896cd1a3812279ebce8e7342429fa"},
	{"worst-case n=2^16 serial exact", 1 << 16, "worst-case", 1, true, "17f4d64cd15e0ce4d6bc5ce39cbbf403bc4d3f2ce723140157f18dd2114f95bd"},
	{"worst-case n=2^16 shards=4 exact", 1 << 16, "worst-case", 4, true, "be91aecf3bd8267aa2633684364487f64d5eb962ec26b7ee359d10b70fcd5716"},
	{"worst-case n=2^17 serial exact", 1 << 17, "worst-case", 1, true, "fc85624c0531c97fa670d149360348162622addf9d0522c52308c750a62f9774"},
	{"worst-case n=2^17 shards=2 exact", 1 << 17, "worst-case", 2, true, "af21af36215b125583d406ca34649a03f943f8156509feb5179f1b78b729f9cd"},
	// From random states almost every early interaction moves a rank, so
	// the fold replays records of agents the batch touches again later.
	{"random n=2^16 shards=4 exact", 1 << 16, "random", 4, true, "7697d3b9c59b13aa79b79584cd901aa648865e11ac5a5072c1c2f138e72227de"},
	{"random n=2^17 shards=2 exact", 1 << 17, "random", 2, true, "517b0ffc1e0f3a973591375ff8d0d5e3f5b297d32bc677092ae0a4ed11440c5b"},
	{"fresh n=2^18 serial", 1 << 18, "fresh", 1, false, "7422fcaf036b325d93a5b45ce398b36ef69657ad1c0b104dd1b07ca3ef43839f"},
	{"fresh n=2^18 shards=2", 1 << 18, "fresh", 2, false, "339b9999f3754f183e22cc0c4ac0963181a0433dd755ab60aabf952e896f724a"},
	{"fresh n=2^18 shards=4", 1 << 18, "fresh", 4, false, "e397f42823e9d101c43dc254c91fd98f072661e774df6ce9b47d1680a61baf1f"},
	{"worst-case n=2^18 serial exact", 1 << 18, "worst-case", 1, true, "2575765ace25ba31c45897d7c1adc51223f8780304c246df3e98474ed71c279c"},
	{"worst-case n=2^18 shards=4 exact", 1 << 18, "worst-case", 4, true, "6601064a9375af6496cc9c4d7197c028fedc61515f64c3380983a57211cea3e5"},
	{"random n=2^18 shards=4 exact", 1 << 18, "random", 4, true, "85fd3b88537c130912cba82f66f18635b680ba7cec0e6f7d5f6d4593538eb21f"},
	{"fresh n=2^20 serial", 1 << 20, "fresh", 1, false, "2746107aad806fe2e0d72a667db904c1889e3989c155319e3bec290b85546534"},
	{"fresh n=2^20 shards=4", 1 << 20, "fresh", 4, false, "72f6f4360a99e3ca914057537d63de12d25d244b55d0a6c3d91925d63a757c24"},
	{"worst-case n=2^20 shards=4 exact", 1 << 20, "worst-case", 4, true, "59d57cde8b61c2098f5fc1c06b7efc520fba9f6bea347cb6530947d9d86b00e4"},
	{"fresh n=2^21 serial", 1 << 21, "fresh", 1, false, "cabc995f8a5c6f18dbd51d9557edc6c14330ca970af8020263a62ebd89298d1e"},
	{"fresh n=2^21 shards=4", 1 << 21, "fresh", 4, false, "9d8d628108df6d6ec3e04035c98a1bf54f663fa97577ae0c9472eb5b54060856"},
	{"worst-case n=2^21 serial exact", 1 << 21, "worst-case", 1, true, "53b6660dadf9f16b9a47f7b7ec519f2ca6d445c2a80a58d0f0434f0f35a9ca11"},
	{"worst-case n=2^21 shards=4 exact", 1 << 21, "worst-case", 4, true, "dbef777bde70f4ba4940956749c10e23d3ae2c96aaa7cb82977deb5ff2af37db"},
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
// TestLargeRunDigests moves. Recorded with the 24-byte state (the
// 2²¹ rows with the 8-byte one), and unchanged by the 8-byte union and
// the 4-byte word.
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
	"fresh n=2^21 serial":              "190302020bc1c5c46885b2a21734d0851824568cfceb147a6b7f22ee1332917d",
	"fresh n=2^21 shards=4":            "2e5e09f52f7fd306c38174075c7e3de5d19e024b93763b36db8963d6efa8be2e",
	"worst-case n=2^21 serial exact":   "263aaa813dc6169e1019c216fc7ee9ac100abce3653c3baa14317acfae62caa9",
	"worst-case n=2^21 shards=4 exact": "284bf8ce3fe3c717894974ad3efd7e50b5b070caad2bd7ba39c5471da01f4f27",
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
