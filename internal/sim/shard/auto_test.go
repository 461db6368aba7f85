package shard

import "testing"

func TestAutoShards(t *testing.T) {
	for _, tc := range []struct {
		n, procs, want int
	}{
		{1000, 8, 1},          // small n: serial no matter the cores
		{524287, 64, 1},       // just below the crossover
		{524288, 1, 1},        // single core: nothing to parallelize
		{524288, 2, 4},        // two shards per core
		{524288, 96, 128},     // slab floor: 524288/4096
		{1 << 22, 2, 4},       // the sharded-large workload on two cores
		{1_000_000, 16, 32},   // cores are the binding constraint
		{1_000_000, 200, 244}, // slab floor again: 1000000/4096
	} {
		if got := AutoShards(tc.n, tc.procs); got != tc.want {
			t.Errorf("AutoShards(%d, %d) = %d, want %d", tc.n, tc.procs, got, tc.want)
		}
	}
	if got := AutoShards(1<<20, 0); got < 1 {
		t.Errorf("AutoShards with derived procs returned %d", got)
	}
}

// idle is a protocol whose interactions change nothing.
type idle struct{}

func (idle) Transition(u, v *uint8)               {}
func (idle) TransitionT(u, v *uint8) (bool, bool) { return false, false }

// TestAutoShardsFillsCrossRounds checks the reason for two shards per
// core: above both floors, every tournament round of the resolved
// count holds at least one cross unit per core, so the cross phase
// never leaves a core idle for want of work.
func TestAutoShardsFillsCrossRounds(t *testing.T) {
	const n = autoMinN
	if n/autoSlab < 2*8 {
		t.Fatalf("n = %d is below the slab floor for 8 cores", n)
	}
	states := make([]uint8, n)
	for procs := 2; procs <= 8; procs++ {
		s := AutoShards(n, procs)
		r := New[uint8](idle{}, states, 1, s, 1)
		for i, round := range r.RoundSchedule() {
			if len(round) < procs {
				t.Errorf("procs %d: S = %d, round %d holds %d cross units", procs, s, i, len(round))
			}
		}
	}
}
