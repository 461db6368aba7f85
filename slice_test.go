package ssrank

import (
	"reflect"
	"runtime"
	"testing"

	"ssrank/internal/sim/shard"
)

// runSliced drives s to its stop condition or budget in RunUntilStable
// calls of at most slice interactions each, as the job server does.
func runSliced(s *Simulation, slice, budget int64) {
	for s.Interactions() < budget && !s.RunUntilStable(min(s.Interactions()+slice, budget)) {
	}
}

// TestSlicedRunMatchesOneCall checks that a run advanced in
// RunUntilStable slices ends with the Result of one call, on the serial
// and the sharded engine: the stop tracker held across the slices
// describes the states exactly as a rescan would. Slices are multiples
// of the batch period, so the sharded barrier schedule is the same.
// Further cases change the states between two slices (Step, Corrupt,
// Swap, Duplicate); their reference resumes from a checkpoint taken
// after the change, so its tracker is built fresh.
func TestSlicedRunMatchesOneCall(t *testing.T) {
	const n, budget = 256, 1 << 24
	batch := int64(shard.BatchPeriod(n))
	for _, shards := range []int{1, 4} {
		cfg := Config{N: n, Seed: 7, Shards: shards, MaxInteractions: budget}
		one, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !one.RunUntilStable(budget) {
			t.Fatalf("shards %d: no stop within %d interactions", shards, int64(budget))
		}
		want := one.Result()
		if want.Interactions < 4<<18 {
			t.Fatalf("shards %d: the stop at %d spans too few 2^18 slices to test slicing", shards, want.Interactions)
		}
		for _, slice := range []int64{batch, 1 << 16, 1 << 18} {
			s, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runSliced(s, slice, budget)
			if got := s.Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("shards %d, slices of %d: Result %+v, one call gave %+v", shards, slice, got, want)
			}
		}

		// A change between two slices must be seen by the slices after
		// it. Each change is made three times: early in one run, and in
		// another just before the stop, where a Step crosses it, and
		// after the stop, once a further call has found the condition
		// holding.
		near := (want.Interactions - 1<<12) / batch * batch
		for _, c := range []struct {
			name   string
			change func(*Simulation) error
		}{
			{"Step", func(s *Simulation) error { s.Step(1 << 13); return nil }},
			{"Corrupt", func(s *Simulation) error { return s.Corrupt(n / 4) }},
			{"Swap", func(s *Simulation) error { return s.Swap(n / 4) }},
			{"Duplicate", func(s *Simulation) error { _, _, err := s.Duplicate(); return err }},
		} {
			var s *Simulation
			for _, when := range []string{"early", "before the stop", "after the stop"} {
				switch when {
				case "early", "before the stop":
					if s, err = NewSimulation(cfg); err != nil {
						t.Fatal(err)
					}
					to := near
					if when == "early" {
						to = 1 << 18
					}
					runSliced(s, 1<<16, to)
				case "after the stop":
					if !s.RunUntilStable(budget) {
						t.Fatalf("shards %d, %s: not stable at the third change", shards, c.name)
					}
				}
				if err := c.change(s); err != nil {
					t.Fatal(err)
				}
				data, err := s.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				runSliced(s, 1<<16, budget)
				ref, err := ResumeSimulation(cfg, data)
				if err != nil {
					t.Fatal(err)
				}
				ref.RunUntilStable(budget)
				if got, want := s.Result(), ref.Result(); !reflect.DeepEqual(got, want) {
					t.Fatalf("shards %d, %s %s: Result %+v, one call from the checkpoint gave %+v", shards, c.name, when, got, want)
				}
			}
		}
	}
}

// TestSlicedRunAllocation checks that a serial run's allocation does
// not grow with the number of RunUntilStable slices it is cut into:
// the stop loop's per-agent scratch is allocated once per run, not
// once per call. The least of three measurements discounts what other
// goroutines allocate.
func TestSlicedRunAllocation(t *testing.T) {
	const n, total = 1 << 16, 1 << 20
	alloc := func(slice int64) uint64 {
		least := ^uint64(0)
		for range 3 {
			s, err := NewSimulation(Config{N: n, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			runSliced(s, slice, total)
			runtime.ReadMemStats(&after)
			if s.Interactions() != total {
				t.Fatalf("slices of %d: stopped at %d of %d interactions", slice, s.Interactions(), total)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	one, sliced := alloc(total), alloc(total/256)
	// One n-entry scratch array more would be 4n bytes.
	if sliced > one+n {
		t.Fatalf("256 slices allocated %d B, one call %d B: the stop loop allocates per call", sliced, one)
	}
}
