package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"testing"

	"ssrank"
	"ssrank/internal/jobs"
)

// fuzzSlabBytes is FuzzSubmit's admission bound: the golden Configs
// (48 agents of at most 44 bytes, with their stop trackers) fit, and
// accepted jobs stay tiny.
const fuzzSlabBytes = 4 << 10

// FuzzSubmit drives arbitrary POST /jobs bodies through the daemon's
// handler, seeded from the Configs of the facade goldens. Whatever the
// body, the handler must not panic, must answer 202 or a client error,
// and must not allocate beyond a constant plus a multiple of the body's
// size. An accepted job's Config is canonical: it normalizes to itself.
func FuzzSubmit(f *testing.F) {
	data, err := os.ReadFile("../../testdata/facade_results.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	var golden map[string]struct{ Config ssrank.Config }
	if err := json.Unmarshal(data, &golden); err != nil {
		f.Fatal(err)
	}
	for _, g := range golden {
		body, err := json.Marshal(g.Config)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"N":48,"Seed":9}`))
	f.Add([]byte(`{"N":4000000000,"Seed":9}`))
	f.Add([]byte(`{"N":64,"Sede":3}`))
	// Unchecked, a negative ε panics in the worker, not the handler.
	// The gate holds the one worker, so this target sees only the
	// handler and can never observe a worker-side panic;
	// TestServerRejects covers that path.
	f.Add([]byte(`{"N":16,"Protocol":"interval","Epsilon":-1}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		// submit posts the body to a fresh manager and returns the
		// response and the bytes the handler allocated. A distributed
		// blocker job holds the manager's one worker in the gate, so
		// the job under test stays queued and the measurement sees the
		// handler's allocation alone.
		submit := func() (*httptest.ResponseRecorder, uint64) {
			g := gate{in: make(chan struct{}), out: make(chan struct{})}
			m := jobs.NewManager(jobs.Config{Workers: 1, SliceInteractions: 1024, MaxSlabBytes: fuzzSlabBytes, Dist: g})
			if _, err := m.Submit(ssrank.Config{N: 16, Workers: 2}); err != nil {
				t.Fatal(err)
			}
			<-g.in
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			newMux(m).ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			close(g.out)
			m.Close()
			return rec, after.TotalAlloc - before.TotalAlloc
		}
		// The fuzz engine can allocate on its own goroutines while an
		// input runs, so the bound is checked on the least of three
		// submissions.
		var rec *httptest.ResponseRecorder
		a := uint64(math.MaxUint64)
		for range 3 {
			var got uint64
			rec, got = submit()
			a = min(a, got)
		}
		if a > 64<<10+64*uint64(len(body)) {
			t.Errorf("a %d-byte body allocated %d bytes", len(body), a)
		}
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var v jobJSON
		if err := json.NewDecoder(rec.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		norm, err := v.Config.Normalized()
		if err != nil {
			t.Fatalf("accepted Config %+v does not normalize: %v", v.Config, err)
		}
		if !reflect.DeepEqual(norm, v.Config) {
			t.Fatalf("accepted Config %+v normalizes to %+v", v.Config, norm)
		}
	})
}

// gate is a fleet that holds the jobs it is offered until out is
// closed, signalling in as one arrives, then declines them (they run
// in-process).
type gate struct{ in, out chan struct{} }

func (g gate) Run(ssrank.Config, func(int64)) (ssrank.Result, bool, error) {
	select {
	case g.in <- struct{}{}:
		<-g.out
	case <-g.out:
	}
	return ssrank.Result{}, false, nil
}
