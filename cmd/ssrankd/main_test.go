package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ssrank"
	"ssrank/internal/jobs"
)

// postJob submits cfg as JSON and decodes the response view.
func postJob(t *testing.T, srv *httptest.Server, body string) jobJSON {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	var v jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServerLifecycle drives the full HTTP surface: submit, stream the
// SSE event log to the terminal event, confirm the status endpoint
// carries the exact Run result, and confirm an identical re-submission
// is served from the cache without re-execution.
func TestServerLifecycle(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(newMux(m))
	defer srv.Close()

	v := postJob(t, srv, `{"N":48,"Seed":9}`)
	if v.State != jobs.Queued {
		t.Fatalf("submitted job state %s, want %s", v.State, jobs.Queued)
	}

	// The SSE stream must replay the log from seq 0, stay gapless, and
	// end by itself after a terminal event.
	resp, err := http.Get(srv.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			types = append(types, typ)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[len(types)-1] != jobs.EventDone {
		t.Fatalf("event stream %v, want it to end with %s", types, jobs.EventDone)
	}

	var status jobJSON
	getJSON(t, srv, "/jobs/"+v.ID, &status)
	if status.State != jobs.Done || status.Result == nil {
		t.Fatalf("terminal status %+v", status)
	}
	want, err := ssrank.Run(ssrank.Config{N: 48, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*status.Result, want) {
		t.Fatalf("served result diverged from Run:\njob %+v\nrun %+v", *status.Result, want)
	}

	// Identical re-submit: cached, terminal without waiting.
	again := postJob(t, srv, `{"N":48,"Seed":9,"ShardWorkers":6}`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, srv, "/jobs/"+again.ID, &status)
		if status.State == jobs.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cached job stuck in %s", status.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !reflect.DeepEqual(*status.Result, want) {
		t.Fatal("cached result diverged from the computed one")
	}
	if n := m.Started(); n != 1 {
		t.Fatalf("%d executions started, want 1", n)
	}

	var all []jobJSON
	getJSON(t, srv, "/jobs", &all)
	if len(all) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(all))
	}
}

// TestServerRejects pins the error paths: malformed JSON, unknown
// fields, invalid configs, and missing job ids; the daemon still
// accepts a valid job afterwards.
func TestServerRejects(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(newMux(m))
	defer srv.Close()

	for name, body := range map[string]string{
		"malformed":     `{"N":`,
		"unknown field": `{"N":64,"Sede":3}`,
		"invalid N":     `{"N":1}`,
		// Unchecked, each of these would panic or hang the worker,
		// not the handler.
		"negative epsilon":  `{"N":16,"Protocol":"interval","Epsilon":-1}`,
		"epsilon too large": `{"N":1048576,"Protocol":"interval","Epsilon":1100}`,
		"delay overflows":   `{"N":16,"Faults":{"DelayMax":9223372036854775807}}`,
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"N":16,"Seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("valid job after the rejections: status %d, want 202", resp.StatusCode)
	}
	for _, path := range []string{"/jobs/job-99", "/jobs/job-99/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSubmitBodyLimit: a valid Config padded with whitespace past
// maxConfigBody is refused with 413 instead of read to its end, while
// the same Config padded to just under the bound is accepted.
func TestSubmitBodyLimit(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(newMux(m))
	defer srv.Close()

	const cfg = `{"N":48,"Seed":9}`
	for _, tc := range []struct {
		size int
		want int
	}{
		{maxConfigBody + 1, http.StatusRequestEntityTooLarge},
		{maxConfigBody, http.StatusAccepted},
	} {
		body := cfg + strings.Repeat(" ", tc.size-len(cfg))
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body: status %d, want %d", tc.size, resp.StatusCode, tc.want)
		}
	}
}

// TestSubmitSlabBound: a job whose agent slab (N × the protocol's
// per-agent state size) and exact-stop state exceed the daemon's bound
// is refused with 422 before anything is sized by N, and a job exactly
// at the bound is accepted. The sharded engine's cross classes count against the bound
// too (it builds Shards² / 2 of them): one class tips an exact-fit job
// over.
func TestSubmitSlabBound(t *testing.T) {
	d, _ := ssrank.Describe(ssrank.StableRanking)
	const n = 48
	fit, err := ssrank.Config{N: n, Seed: 9}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(n*d.AgentBytes) + d.TrackerBytes(fit)
	m := jobs.NewManager(jobs.Config{Workers: 1, MaxSlabBytes: bound})
	defer m.Close()
	srv := httptest.NewServer(newMux(m))
	defer srv.Close()

	se, _ := ssrank.Describe(ssrank.SpaceEfficient)
	if se.AgentBytes <= d.AgentBytes {
		t.Fatalf("space-efficient agents (%d B) are no larger than stable ones (%d B)", se.AgentBytes, d.AgentBytes)
	}
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"N":49,"Seed":9}`, http.StatusUnprocessableEntity},
		{`{"N":48,"Seed":9,"Protocol":"space-efficient"}`, http.StatusUnprocessableEntity},
		{`{"N":4000000000,"Seed":9}`, http.StatusUnprocessableEntity},
		{`{"N":48,"Seed":9,"Shards":2}`, http.StatusUnprocessableEntity},
		{`{"N":48,"Seed":9}`, http.StatusAccepted},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
		if a := after.TotalAlloc - before.TotalAlloc; a > 1<<20 {
			t.Errorf("%s: submitting allocated %d bytes", tc.body, a)
		}
	}
}

// TestSubmitTrackerBound: under the default -maxslab of 1 GiB, a
// 16-agent Interval job whose ε makes its stop tracker 16 GiB is
// refused with 422 instead of being handed to a worker. Admission runs
// before the manager's closed check, so a closed manager answers it:
// should admission let the job through, the answer is 400 and no
// worker starts it.
func TestSubmitTrackerBound(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1, MaxSlabBytes: 1 << 30})
	m.Close()
	srv := httptest.NewServer(newMux(m))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"N":16,"Protocol":"interval","Epsilon":67108862}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want %d", resp.StatusCode, http.StatusUnprocessableEntity)
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestServerDistributed drives a Workers>1 job through a connected
// worker fleet (the -workeraddr accept loop feeding distPool) and
// requires the exact in-process Result on the status endpoint, plus
// the progress fraction reaching 1 at the terminal state.
func TestServerDistributed(t *testing.T) {
	pool := &distPool{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			pool.add(c)
		}
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < 2; i++ {
		wc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ssrank.ServeWorker(wc)
		}()
	}

	m := jobs.NewManager(jobs.Config{Workers: 1, Dist: pool})
	defer m.Close()
	srv := httptest.NewServer(newMux(m))
	defer srv.Close()

	v := postJob(t, srv, `{"N":64,"Seed":13,"Shards":4,"Workers":2}`)
	var status jobJSON
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, srv, "/jobs/"+v.ID, &status)
		if status.State == jobs.Done || status.State == jobs.Failed {
			break
		}
		if status.Progress < 0 || status.Progress > 1 {
			t.Fatalf("progress %v out of range", status.Progress)
		}
		if time.Now().After(deadline) {
			t.Fatalf("distributed job stuck in %s", status.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status.State != jobs.Done || status.Result == nil {
		t.Fatalf("terminal status %+v (%s)", status, status.Error)
	}
	if status.Progress != 1 {
		t.Fatalf("terminal progress %v, want 1", status.Progress)
	}
	want, err := ssrank.Run(ssrank.Config{N: 64, Seed: 13, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*status.Result, want) {
		t.Fatalf("distributed job result diverged from Run:\njob %+v\nrun %+v", *status.Result, want)
	}
}
