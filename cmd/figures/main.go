// Command figures regenerates every table and figure of the paper's
// evaluation (plus the shape experiments of DESIGN.md §4), writing one
// CSV per experiment and printing ASCII renderings:
//
//	figures -out results/            # full scale, all CPUs
//	figures -quick -only E1,E2       # scaled down, selected experiments
//	figures -parallel 1              # serial replications (same output)
//	figures -e E1 -shards 4          # sharded engine inside each trial
//	                                 # (same CSV at every -parallel)
//	figures -e E4 -shards auto       # shard count derived per n from
//	                                 # the population and core count
//	figures -e E2 -precision 0.05 -maxtrials 200 -progress
//	                                 # CI-adaptive: replicate each loop
//	                                 # until its 95% CI half-width is
//	                                 # within 5% of the mean
//	figures -quick -e E2 -shards 4 -cpuprofile cpu.pb.gz
//	                                 # profile the sharded engine
//	                                 # (go tool pprof cpu.pb.gz)
//
// Replications stream through the deterministic engine
// (internal/sim/replicate.ReplicateStream): results commit in trial
// order, so the CSVs are byte-identical for any -parallel value — with
// or without -precision stopping — and the flags only trade wall-clock
// for cores (and trials for certified precision).
//
// EXPERIMENTS.md records a full run's output next to the paper's
// numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ssrank/internal/expt"
	"ssrank/internal/prof"
	"ssrank/internal/sim/shard"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out       = flag.String("out", "results", "directory for CSV output (created if missing)")
		quick     = flag.Bool("quick", false, "scaled-down experiments (seconds instead of minutes)")
		only      = flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E3); empty = all")
		e         = flag.String("e", "", "alias of -only")
		seed      = flag.Uint64("seed", 0x5eed, "experiment seed")
		parallel  = flag.Int("parallel", 0, "replication workers: 0 = one per CPU, 1 = serial (output is identical either way)")
		shards    = flag.String("shards", "0", "run the experiments' protocol trials on this many population shards, or 'auto' to derive the count from n and the core count; output depends on the resolved shard count but not on -parallel")
		precision = flag.Float64("precision", 0, "stop each replication loop once the 95% CI half-width of its statistic falls below this fraction of the mean (0 = fixed trial counts)")
		maxtrials = flag.Int("maxtrials", 0, "override per-loop replication trial ceilings (0 = generator defaults); raise it to give -precision room")
		progress  = flag.Bool("progress", false, "stream per-trial replication progress to stderr")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (pprof format)")
		memprof   = flag.String("memprofile", "", "write an allocation profile to this file after the experiments (pprof format)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
		}
	}()

	if *precision < 0 {
		fmt.Fprintln(os.Stderr, "figures: -precision must be >= 0")
		return 2
	}
	shardCount, err := shard.ParseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	opts := expt.Options{
		Seed: *seed, Quick: *quick, Workers: *parallel, Shards: shardCount,
		Precision: *precision, MaxTrials: *maxtrials,
	}
	if *progress {
		opts.Progress = func(p expt.Progress) {
			fmt.Fprintf(os.Stderr, "%-24s %4d/%-4d mean=%-12.6g ±%.4g\n",
				p.Label, p.Committed, p.Max, p.Mean, p.CI95)
		}
	}

	sel := *only
	if *e != "" {
		if sel != "" {
			sel += ","
		}
		sel += *e
	}
	exps := expt.Registry
	if sel != "" {
		exps = nil
		for _, id := range strings.Split(sel, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(expt.Registry, func(x expt.Experiment) bool { return x.ID == id })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "figures: unknown experiment %q\n", id)
				return 2
			}
			exps = append(exps, expt.Registry[i])
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}

	for _, x := range exps {
		fig := x.Gen(opts)
		fmt.Println(fig.String())
		path := filepath.Join(*out, strings.ToLower(x.ID)+".csv")
		if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 2
		}
		fmt.Printf("wrote %s\n\n", path)
	}
	return 0
}
