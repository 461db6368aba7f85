package expt

import "testing"

// TestShardWorkerCountInvariance is the figure-level determinism
// contract of the sharded engine, and the CI lock on the acceptance
// criterion "figures -e E1 -shards 4 is byte-identical at 1 vs 8
// workers": for a fixed (seed, shard count) an adopting generator must
// produce identical CSVs at every worker setting. E1 covers the
// single-trajectory sim.Poll path, E2 the replicated sim.Poll sweep
// (shard workers nested inside the trial pool), E4 the pilot-budget
// derivation through the sharded engine, E10 a fault injection (Corrupt
// plus Resync) on the held sharded exact loop. Each sharded CSV must
// also differ from the serial engine's, or Shards has stopped reaching
// that generator's trials.
func TestShardWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	for _, tc := range []struct {
		id  string
		gen func(Options) Figure
	}{
		{"E1", Figure2},
		{"E2", Figure3},
		{"E4", Theorem1Shape},
		{"E10", FaultRecovery},
	} {
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			serial := QuickOptions()
			serial.Shards = 4
			serial.Workers = 1
			pool := QuickOptions()
			pool.Shards = 4
			pool.Workers = 8

			a := tc.gen(serial)
			b := tc.gen(pool)
			if a.CSV() != b.CSV() {
				t.Fatalf("%s: CSV differs between 1 and 8 workers at 4 shards", tc.id)
			}
			if len(a.Rows) == 0 {
				t.Fatalf("%s: no rows produced", tc.id)
			}
			if a.CSV() == tc.gen(QuickOptions()).CSV() {
				t.Fatalf("%s: CSV identical at 4 shards and on the serial engine: sharding is not reaching the trials", tc.id)
			}
		})
	}
}

// TestShardCountIsPartOfTheSeed pins the other half of the contract:
// the sharded trajectory is a *different* (equally lawful) realization
// than the serial engine's, so CSVs legitimately depend on the shard
// count. If this ever starts passing identical output, the -shards
// flag has silently stopped reaching the engine.
func TestShardCountIsPartOfTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	sharded := QuickOptions()
	sharded.Shards = 4
	if Figure2(QuickOptions()).CSV() == Figure2(sharded).CSV() {
		t.Fatal("E1 CSV identical with and without -shards 4: sharding is not reaching the engine")
	}
}
