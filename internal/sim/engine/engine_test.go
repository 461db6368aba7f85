package engine

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"ssrank/internal/baseline/cai"
	"ssrank/internal/ckpt"
	"ssrank/internal/sim/msgnet"
	"ssrank/internal/sim/shard"
	"ssrank/internal/stable"
)

func TestResolveShards(t *testing.T) {
	for _, tc := range []struct{ shards, n, want int }{
		{0, 48, 1},
		{1, 48, 1},
		{4, 48, 4},
		{4, 5, 2},             // clamped to n/2
		{2, 3, 1},             // one shard of three agents: serial
		{shard.Auto, 1000, 1}, // below the size where sharding pays
		{shard.Auto, autoMinN - 1, 1},
		{shard.Auto, autoMinN, autoAt(autoMinN)},
	} {
		if got := ResolveShards(tc.shards, tc.n); got != tc.want {
			t.Errorf("ResolveShards(%d, %d) = %d, want %d", tc.shards, tc.n, got, tc.want)
		}
		if got := ResolveShards(ResolveShards(tc.shards, tc.n), tc.n); got != tc.want {
			t.Errorf("ResolveShards is not idempotent at (%d, %d): %d", tc.shards, tc.n, got)
		}
	}
}

// autoMinN is shard.AutoShards' crossover; TestResolveShardsAtCrossover
// checks that the literal still matches it.
const autoMinN = 1 << 19

// autoAt is the count Auto resolves to at n on this machine: two
// shards per core, serial on one core.
func autoAt(n int) int {
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		return min(2*procs, n/4096)
	}
	return 1
}

func TestResolveShardsAtCrossover(t *testing.T) {
	if shard.AutoShards(autoMinN-1, 8) != 1 || shard.AutoShards(autoMinN, 8) != 16 {
		t.Fatalf("shard.AutoShards no longer switches from serial to two shards per core at n = %d", autoMinN)
	}
}

// TestSelectionRule locks the one rule: the message network when the
// knobs name a scheduler or faults, the sharded engine above one
// resolved shard, the serial engine otherwise.
func TestSelectionRule(t *testing.T) {
	d := cai.Describe()
	for _, tc := range []struct {
		name string
		n    int
		k    Knobs
		want string
	}{
		{"default", 16, Knobs{}, "serial"},
		{"one shard", 16, Knobs{Shards: 1}, "serial"},
		{"clamped to one shard", 3, Knobs{Shards: 4}, "serial"},
		{"auto at small n", 16, Knobs{Shards: shard.Auto}, "serial"},
		{"two shards", 16, Knobs{Shards: 2}, "sharded"},
		{"uniform scheduler", 16, Knobs{Scheduler: msgnet.Uniform, Shards: 4}, "network"},
		{"faults only", 16, Knobs{Faults: msgnet.Faults{Drop: 0.1}}, "network"},
	} {
		e, err := New(d, tc.n, "fresh", tc.k)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got string
		switch e.runner.(type) {
		case serial[cai.State, *cai.Protocol]:
			got = "serial"
		case sharded[cai.State, *cai.Protocol]:
			got = "sharded"
		case network[cai.State, *cai.Protocol]:
			got = "network"
		}
		if got != tc.want {
			t.Errorf("%s: engine %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestNewRejectsUnknownInit(t *testing.T) {
	if _, err := New(cai.Describe(), 16, "fig3", Knobs{}); err == nil || !strings.Contains(err.Error(), `supports inits [fresh random], got "fig3"`) {
		t.Fatalf("New with an unregistered init: %v", err)
	}
}

func TestResumeRejectsMismatchedEngine(t *testing.T) {
	d := cai.Describe()
	section := func(k Knobs) []byte {
		e, err := New(d, 16, "fresh", k)
		if err != nil {
			t.Fatal(err)
		}
		var w ckpt.Writer
		if err := e.Checkpoint(&w, -1); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	for _, tc := range []struct {
		name string
		data []byte
		k    Knobs
		want string
	}{
		{"serial into sharded", section(Knobs{}), Knobs{Shards: 2}, "serial checkpoint, config resolves to 2 shards"},
		{"sharded into serial", section(Knobs{Shards: 2}), Knobs{}, "sharded checkpoint, config resolves to 1 shard(s)"},
		{"two shards into four", section(Knobs{Shards: 2}), Knobs{Shards: 4}, "checkpoint pair streams"},
		{"retired layout", []byte{1, 1, 0}, Knobs{Shards: 2}, "unknown checkpoint engine kind 1"},
		{"unknown kind", []byte{7, 1, 0}, Knobs{}, "unknown checkpoint engine kind 7"},
		{"truncated", []byte{KindSerial}, Knobs{}, "malformed checkpoint engine section"},
	} {
		_, _, err := Resume(d, 16, tc.k, ckpt.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// TestNetworkRuns checks the message network's polled stop and its
// refusal to checkpoint.
func TestNetworkRuns(t *testing.T) {
	d := stable.Describe()
	e, err := New(d, 16, "fresh", Knobs{Seed: 3, Scheduler: msgnet.Uniform})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	if e.Steps() < 100 || e.Rounds() == 0 {
		t.Fatalf("Run(100) left steps %d, rounds %d", e.Steps(), e.Rounds())
	}
	hit, ok := e.RunUntilStable(1<<30, 1<<30)
	if !ok || hit != -1 || !d.Valid(e.States()) {
		t.Fatalf("RunUntilStable = (%d, %v), valid %v; want a polled stop (-1, true) on a valid ranking", hit, ok, d.Valid(e.States()))
	}
	var w ckpt.Writer
	if err := e.Checkpoint(&w, -1); !errors.Is(err, errNotCheckpointable) || w.Len() != 0 {
		t.Fatalf("Checkpoint on the message network: err %v, %d bytes written", err, w.Len())
	}
}
