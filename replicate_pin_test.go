package ssrank

// This file pins Replicate's full Replication — every committed
// Result, the trial and convergence counts and both Summaries, floats
// to the last bit — against testdata/replicate_pin.golden.json, at one
// and at four workers. Regenerate with
//
//	go test -run TestReplicatePin -update .
//
// only for an intentional change of a trajectory or of the stop rule.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

const replicatePin = "testdata/replicate_pin.golden.json"

func TestReplicatePin(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		opt  ReplicateOptions
	}{
		{"fixed12", Config{N: 12, Seed: 3}, ReplicateOptions{Trials: 12}},
		{"precision0.2", Config{N: 12, Seed: 9}, ReplicateOptions{Trials: 64, Precision: 0.2}},
		// A budget near the median hitting time: some trials exhaust
		// it, commit with Converged = false and stay out of both
		// Summaries and of the precision rule's samples.
		{"budget", Config{N: 12, Seed: 5, MaxInteractions: 7000}, ReplicateOptions{Trials: 24, Precision: 0.2}},
	}
	want := map[string]json.RawMessage{}
	if !*update {
		data, err := os.ReadFile(replicatePin)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", replicatePin, err)
		}
	}
	var out bytes.Buffer
	out.WriteString("{\n")
	for i, c := range cases {
		for _, workers := range []int{1, 4} {
			opt := c.opt
			opt.Workers = workers
			rep, err := Replicate(c.cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if workers == 1 {
					if i > 0 {
						out.WriteString(",\n")
					}
					fmt.Fprintf(&out, "%q: %s", c.name, got)
				}
				continue
			}
			var w bytes.Buffer
			if err := json.Compact(&w, want[c.name]); err != nil || !bytes.Equal(got, w.Bytes()) {
				t.Fatalf("%s workers=%d: Replication drifted from %s:\ngot  %s\nwant %s",
					c.name, workers, replicatePin, got, want[c.name])
			}
		}
	}
	if *update {
		out.WriteString("\n}\n")
		if err := os.WriteFile(replicatePin, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
