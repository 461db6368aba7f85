package ssrank

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"ssrank/internal/proto"
)

// startWorkers launches p in-process worker loops over real localhost
// TCP (the production transport; synchronous pipes would deadlock the
// streamed frame protocol) and returns the coordinator-side
// connections. Workers that exit with an error report it through errc.
func startWorkers(t *testing.T, p int) ([]net.Conn, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	errc := make(chan error, p)
	var wg sync.WaitGroup
	conns := make([]net.Conn, p)
	for i := 0; i < p; i++ {
		wc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		cc, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		conns[i] = cc
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- ServeWorker(wc)
			wc.Close()
		}()
	}
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
		wg.Wait()
	})
	return conns, errc
}

// TestRunDistributedMatchesSharded locks the tentpole determinism
// guarantee: a distributed run is byte-identical to the in-process
// sharded engine at the same (seed, shards) for every worker count —
// the trajectory is a function of the schedule, not of placement. It
// covers every registered protocol, so every agent image layout the
// delta path derives is checked against the in-process Result.
func TestRunDistributedMatchesSharded(t *testing.T) {
	cases := []struct {
		proto  Protocol
		n      int
		shards int
	}{
		{StableRanking, 48, 4},
		{SpaceEfficient, 48, 4},
		{Cai, 40, 5},
		{Aware, 40, 4},
		{Interval, 64, 4},
		{Loose, 32, 4},
	}
	if len(cases) != len(registry) {
		t.Fatalf("%d cases for %d registered protocols", len(cases), len(registry))
	}
	for _, tc := range cases {
		cfg := Config{N: tc.n, Protocol: tc.proto, Seed: 7, Shards: tc.shards}
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: in-process run: %v", tc.proto, err)
		}
		if !want.Exact {
			t.Fatalf("%s: in-process run not exact", tc.proto)
		}
		for _, p := range []int{1, 2, 4} {
			conns, _ := startWorkers(t, p)
			got, err := RunDistributed(cfg, DistRun{Workers: conns})
			if err != nil {
				t.Fatalf("%s P=%d: %v", tc.proto, p, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s P=%d: distributed result differs from in-process sharded run\n got: %+v\nwant: %+v",
					tc.proto, p, got, want)
			}
		}
	}
}

// TestRegistryAgentImages: every registered protocol's state type
// has the layout its checkpoint slab and its distributed agent images
// derive from (AgentBytes is its size), and a state type without one
// fails at registration instead of at its first distributed run.
func TestRegistryAgentImages(t *testing.T) {
	for _, d := range registry {
		if d.AgentBytes <= 0 || d.distRuntime(Config{N: 16, Protocol: d.Protocol, Epsilon: 1}) == nil {
			t.Errorf("%s: %d-byte agents, no worker runtime", d.Protocol, d.AgentBytes)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("registered a state type with a float field")
		}
	}()
	describe(func(Config) proto.Descriptor[floatState, floatProto] {
		return proto.Descriptor[floatState, floatProto]{Name: "float"}
	})
}

// floatState has no layout: the agent codecs cover integers and bools.
type floatState struct{ X float64 }

type floatProto struct{}

func (floatProto) Transition(u, v *floatState)               {}
func (floatProto) TransitionT(u, v *floatState) (bool, bool) { return false, false }

// TestRunDistributedBudgetExhausted checks the budget path mirrors Run:
// ErrNotConverged wrapped, partial Result identical to in-process.
func TestRunDistributedBudgetExhausted(t *testing.T) {
	cfg := Config{N: 40, Protocol: StableRanking, Seed: 3, Shards: 4, MaxInteractions: 2048}
	want, werr := Run(cfg)
	if !errors.Is(werr, ErrNotConverged) {
		t.Fatalf("in-process err = %v, want ErrNotConverged", werr)
	}
	conns, _ := startWorkers(t, 2)
	got, gerr := RunDistributed(cfg, DistRun{Workers: conns})
	if !errors.Is(gerr, ErrNotConverged) {
		t.Fatalf("distributed err = %v, want ErrNotConverged", gerr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budget-exhausted distributed result differs\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRunDistributedPooledConnections reuses one worker set across
// consecutive runs: Stop re-greets, so a second coordinator finds a
// fresh handshake on each pooled connection.
func TestRunDistributedPooledConnections(t *testing.T) {
	conns, _ := startWorkers(t, 2)
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := Config{N: 36, Protocol: StableRanking, Seed: seed, Shards: 3}
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := RunDistributed(cfg, DistRun{Workers: conns})
		if err != nil {
			t.Fatalf("seed %d distributed: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: pooled-connection run differs", seed)
		}
	}
}

// TestRunDistributedValidation checks the rejection paths.
func TestRunDistributedValidation(t *testing.T) {
	if _, err := RunDistributed(Config{N: 32, Seed: 1, Shards: 2}, DistRun{}); err == nil {
		t.Error("no workers: want error")
	}
	conns, _ := startWorkers(t, 1)
	if _, err := RunDistributed(Config{N: 32, Seed: 1}, DistRun{Workers: conns}); err == nil {
		t.Error("serial config: want error")
	}
	if _, err := RunDistributed(Config{N: 32, Seed: 1, Shards: 2, Scheduler: SchedulerUniform}, DistRun{Workers: conns}); err == nil {
		t.Error("message-network config: want error")
	}
}

// TestRunDistributedProgress checks OnBatch reports monotone committed
// interaction counts ending at the hitting step's batch.
func TestRunDistributedProgress(t *testing.T) {
	conns, _ := startWorkers(t, 2)
	var steps []int64
	cfg := Config{N: 40, Protocol: StableRanking, Seed: 11, Shards: 4}
	if _, err := RunDistributed(cfg, DistRun{Workers: conns, OnBatch: func(s int64) { steps = append(steps, s) }}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(steps) == 0 {
		t.Fatal("no batch progress reported")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			t.Fatalf("progress not monotone: %v", steps)
		}
	}
}

// TestWorkersExecutionOnly checks the Workers knob is invisible to the
// canonical form modulo itself and cleared from Result.Config.
func TestWorkersExecutionOnly(t *testing.T) {
	res, err := Run(Config{N: 32, Seed: 5, Shards: 2, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Workers != 0 {
		t.Errorf("Result.Config.Workers = %d, want 0", res.Config.Workers)
	}
	base, err := Run(Config{N: 32, Seed: 5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, base) {
		t.Error("Workers changed an in-process Result")
	}
}

// killConn injects a worker crash at a precise wire position: the
// killAt-th write on the worker side sends only half its frame before
// the connection dies — mid-frame, so the coordinator sees a torn
// barrier or phase report, the worst-case death for recovery to mask.
type killConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	killAt int
}

func (k *killConn) Write(b []byte) (int, error) {
	k.mu.Lock()
	k.writes++
	w := k.writes
	k.mu.Unlock()
	if w == k.killAt {
		k.Conn.Write(b[:len(b)/2])
		k.Conn.Close()
		return len(b) / 2, errors.New("injected worker crash")
	}
	if w > k.killAt {
		return 0, errors.New("injected worker crash")
	}
	return k.Conn.Write(b)
}

// startKillableWorkers is startWorkers with one worker (index 0)
// crashing at the given write number.
func startKillableWorkers(t *testing.T, p, killAt int) []net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	var wg sync.WaitGroup
	conns := make([]net.Conn, p)
	for i := 0; i < p; i++ {
		wc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		cc, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		conns[i] = cc
		if i == 0 {
			wc = &killConn{Conn: wc, killAt: killAt}
		}
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			ServeWorker(c) // the killed worker exits with the injected error
			c.Close()
		}(wc)
	}
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
		wg.Wait()
	})
	return conns
}

// TestDistRecoveryMidBatch crashes a worker halfway through a frame
// write — mid-phase and mid-barrier — and checks the recovered run
// reproduces the undisturbed in-process Result byte for byte. Write
// numbers: #1 is the greeting; a batch at S shards spans phases+1
// writes (phases = 1 intra + rounds), so #3 tears a phase report and
// #(phases+2) tears the first batch's barrier frame.
func TestDistRecoveryMidBatch(t *testing.T) {
	for _, tc := range []struct {
		proto  Protocol
		n      int
		shards int
		killAt int
		label  string
	}{
		{StableRanking, 48, 4, 3, "mid-phase"},
		{StableRanking, 48, 4, 6, "mid-barrier"},  // S=4: 3 rounds, 4 phases, barrier = write 6
		{StableRanking, 56, 7, 10, "mid-barrier"}, // S=7: 7 rounds, 8 phases, barrier = write 10
		{Interval, 64, 4, 3, "mid-phase"},
		{Interval, 64, 4, 6, "mid-barrier"},
		{Interval, 70, 7, 10, "mid-barrier"},
	} {
		cfg := Config{N: tc.n, Protocol: tc.proto, Seed: 9, Shards: tc.shards}
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s S=%d: in-process: %v", tc.proto, tc.shards, err)
		}
		conns := startKillableWorkers(t, 3, tc.killAt)
		got, err := RunDistributed(cfg, DistRun{Workers: conns, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("%s S=%d %s: %v", tc.proto, tc.shards, tc.label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s S=%d %s: recovered result differs from undisturbed run", tc.proto, tc.shards, tc.label)
		}
	}
}

// TestDistRecoveryMidRun kills a worker between batch barriers (the
// coordinator finds the connection dead at the next broadcast) and
// checks the migrated run still reproduces the undisturbed Result.
func TestDistRecoveryMidRun(t *testing.T) {
	for _, proto := range []Protocol{StableRanking, Interval} {
		for _, shards := range []int{4, 7} {
			cfg := Config{N: 64, Protocol: proto, Seed: 21, Shards: shards}
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s S=%d: in-process: %v", proto, shards, err)
			}
			conns, _ := startWorkers(t, 3)
			batches := 0
			got, err := RunDistributed(cfg, DistRun{
				Workers: conns,
				Timeout: 5 * time.Second,
				OnBatch: func(int64) {
					batches++
					if batches == 2 {
						conns[1].Close() // dead peer, noticed at the next broadcast
					}
				},
			})
			if err != nil {
				t.Fatalf("%s S=%d: %v", proto, shards, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s S=%d: post-migration result differs from undisturbed run", proto, shards)
			}
		}
	}
}

// TestDistAllWorkersLost checks the unrecoverable path: every worker
// dead yields an infrastructure error, not a bogus Result.
func TestDistAllWorkersLost(t *testing.T) {
	conns := startKillableWorkers(t, 1, 3)
	_, err := RunDistributed(Config{N: 48, Seed: 1, Shards: 4}, DistRun{Workers: conns, Timeout: 2 * time.Second})
	if err == nil || errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want infrastructure error", err)
	}
}
