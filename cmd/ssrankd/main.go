// Command ssrankd serves ranking-protocol runs as jobs over HTTP: a
// bounded worker pool drains a FIFO queue of submitted Configs, long
// runs are preempted and parked in the queue when it backs up, and
// completed results are cached by the content address of their
// canonical configuration — an identical re-submission is answered
// instantly without re-execution (runs are deterministic, so the
// cached result is exactly what a re-run would produce).
//
//	ssrankd -addr :8080 -workers 4
//
// With -workeraddr the daemon additionally listens for ssrank-worker
// processes and routes jobs whose Config sets Workers > 1 through the
// connected fleet (ssrank.RunDistributed) — same Result bytes, remote
// hardware. With -cachedir completed results spill to disk and
// survive restarts; -cachemax caps the in-memory result cache.
//
// API:
//
//	POST /jobs            submit a Config (JSON) → {"id": "job-0", ...}
//	GET  /jobs            list all jobs
//	GET  /jobs/{id}       job status with a progress fraction; result
//	                      and error once terminal
//	GET  /jobs/{id}/events  Server-Sent Events: the job's ordered
//	                      event log (queued, started, progress,
//	                      preempted, cached, done/failed), replayed
//	                      from the start and streamed to completion —
//	                      progress fires at slice boundaries, for
//	                      distributed jobs at committed batch barriers
//	GET  /healthz         liveness probe
//
// See the README quickstart for a curl walkthrough.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"ssrank"
	"ssrank/internal/jobs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "worker pool size")
	slice := flag.Int64("slice", 0, "interactions per scheduling slice (0 = default); long jobs are preempted at slice boundaries when other jobs wait and later continue where they stopped")
	workerAddr := flag.String("workeraddr", "", "listen address for ssrank-worker processes (host:port, or a unix socket path containing '/'); empty disables distributed execution")
	cacheDir := flag.String("cachedir", "", "directory for the disk-spill result cache; empty keeps the cache memory-only")
	cacheMax := flag.Int("cachemax", 0, "in-memory result cache capacity in entries (0 = default)")
	maxSlab := flag.Int64("maxslab", 1<<30, "largest agent slab, in bytes, a job may build (N × the protocol's per-agent state size, 4 B for stable, plus the sharded engine's per-class state: Shards² / 2 × 256, plus the exact stop's state: 4 B per agent, 1 B per rank and at most 0.5 B per agent of spilled multiplicities for the rank tracker, at most 32 KiB of serial collision marks, 16 B per identifier for interval; a sharded job's exact stop folds into this one slab, no engine builds a second); larger jobs are refused with 422 (0 = no bound)")
	flag.Parse()

	jcfg := jobs.Config{Workers: *workers, SliceInteractions: *slice, CacheDir: *cacheDir, CacheMax: *cacheMax, MaxSlabBytes: *maxSlab}
	if *workerAddr != "" {
		pool := &distPool{}
		ln, err := listen(*workerAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssrankd:", err)
			os.Exit(1)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				log.Printf("ssrankd: worker connected from %s", c.RemoteAddr())
				pool.add(c)
			}
		}()
		jcfg.Dist = pool
		log.Printf("ssrankd accepting workers on %s", *workerAddr)
	}
	m := jobs.NewManager(jcfg)
	defer m.Close()

	log.Printf("ssrankd listening on %s (%d workers)", *addr, *workers)
	if err := http.ListenAndServe(*addr, newMux(m)); err != nil {
		fmt.Fprintln(os.Stderr, "ssrankd:", err)
		os.Exit(1)
	}
}

// listen opens the worker listener: a unix socket when the address
// contains a path separator (removing a stale socket file first),
// TCP otherwise.
func listen(addr string) (net.Listener, error) {
	if strings.Contains(addr, "/") {
		os.Remove(addr)
		return net.Listen("unix", addr)
	}
	return net.Listen("tcp", addr)
}

// newMux wires the API routes onto a fresh ServeMux (split from main
// so tests can drive the handlers through httptest).
func newMux(m *jobs.Manager) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		submit(m, w, r)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		list(m, w)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, jobView(j))
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		stream(j, w, r)
	})
	return mux
}

// jobJSON is the wire form of a job.
type jobJSON struct {
	ID    string     `json:"id"`
	State jobs.State `json:"state"`
	Steps int64      `json:"steps"`
	// Progress is the fraction of the interaction budget consumed so
	// far, in [0, 1]; 1 on every Done job (convergence ends the run
	// early, but ends it). A coarse dashboard number: convergence is a
	// hitting time, not a linear process, so most runs finish well
	// before Progress reaches 1.
	Progress float64        `json:"progress"`
	Config   ssrank.Config  `json:"config"`
	Key      string         `json:"key"`
	Result   *ssrank.Result `json:"result,omitempty"`
	Error    string         `json:"error,omitempty"`
}

func jobView(j *jobs.Job) jobJSON {
	state, steps, result, err := j.Status()
	v := jobJSON{ID: j.ID, State: state, Steps: steps, Config: j.Config, Key: j.Key, Result: result}
	if budget := j.Config.MaxInteractions; budget > 0 {
		v.Progress = min(float64(steps)/float64(budget), 1)
	}
	if state == jobs.Done {
		v.Progress = 1
	}
	if err != nil {
		v.Error = err.Error()
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxConfigBody bounds a POST /jobs body. A Config is a few hundred
// bytes of JSON; the bound leaves room for formatting, and keeps a
// client from making the server read an unbounded body.
const maxConfigBody = 64 << 10

// submit decodes a Config and enqueues it. Unknown fields are
// rejected: a typoed field name silently meaning "default" would make
// the submitted run differ from the intended one. A body over
// maxConfigBody gets 413, a job over the daemon's agent-slab bound
// (-maxslab) 422.
func submit(m *jobs.Manager, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxConfigBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("config body exceeds %d bytes", maxConfigBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading config: "+err.Error(), http.StatusBadRequest)
		return
	}
	var cfg ssrank.Config
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		http.Error(w, "bad config: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, err := m.Submit(cfg)
	if errors.Is(err, jobs.ErrSlabTooLarge) {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusAccepted, jobView(j))
}

func list(m *jobs.Manager, w http.ResponseWriter) {
	all := m.Jobs()
	views := make([]jobJSON, len(all))
	for i, j := range all {
		views[i] = jobView(j)
	}
	writeJSON(w, http.StatusOK, views)
}

// stream serves a job's event log as Server-Sent Events: the full log
// replayed from sequence 0, then live events as the job emits them,
// closing after the terminal event. The jobs package guarantees a
// gapless ordered log (Watch notifications coalesce; EventsSince
// re-reads never drop), so the SSE ids are exactly the event
// sequence numbers.
func stream(j *jobs.Job, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	notify, cancel := j.Watch()
	defer cancel()

	next := 0
	send := func() bool {
		for _, ev := range j.EventsSince(next) {
			next = ev.Seq + 1
			data, err := json.Marshal(ev)
			if err != nil {
				return false
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return false
			}
		}
		fl.Flush()
		return true
	}
	if !send() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case _, open := <-notify:
			if !send() {
				return
			}
			if !open {
				return
			}
		}
	}
}
