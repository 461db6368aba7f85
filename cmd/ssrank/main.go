// Command ssrank runs a ranking protocol once and reports the outcome:
//
//	ssrank -n 256 -protocol stable -init worst-case -seed 7 -v
//
// With -trials it replicates the run across the deterministic parallel
// engine and reports aggregate statistics instead:
//
//	ssrank -n 256 -trials 32 -parallel 0   # 32 replications, all CPUs
//	ssrank -n 256 -trials 500 -precision 0.05 -progress
//	    # stream replications until the 95% CI on the convergence time
//	    # is within ±5% of its mean (at most 500 trials)
//
// Naming a -scheduler (or setting any fault flag) routes the run
// through the round-based message network instead of the in-place
// engines:
//
//	ssrank -n 64 -drop 0.05 -delaymax 3    # faulty uniform network
//	ssrank -n 64 -scheduler expander       # sparse contact graph
//	                                       # (expect non-convergence)
//
// -cpuprofile/-memprofile write pprof profiles of exactly the work the
// invocation performs (the DESIGN.md §3 measurements cite these):
//
//	ssrank -n 10000000 -shards 8 -cpuprofile cpu.pb.gz
//
// -list prints the protocol registry: every registered protocol with
// its supported inits and default budget at the configured -n.
//
// It exercises exactly the public API a library user would call.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ssrank"
	"ssrank/internal/prof"
	"ssrank/internal/sim/shard"
)

func main() {
	os.Exit(run())
}

// printErr writes err to stderr as one "ssrank: ..." line. The
// facade's errors already start with the package name, so the prefix
// is added only to errors that lack it.
func printErr(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "ssrank: ") {
		msg = "ssrank: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
}

// protocolNames renders the registry for the -protocol flag help, so
// the CLI cannot drift from the registered set.
func protocolNames() string {
	names := make([]string, 0, 8)
	for _, p := range ssrank.Protocols() {
		names = append(names, string(p))
	}
	return strings.Join(names, " | ")
}

// schedulerNames renders the topology registry for the -scheduler
// flag help.
func schedulerNames() string {
	names := make([]string, 0, 8)
	for _, s := range ssrank.Schedulers() {
		names = append(names, string(s))
	}
	return strings.Join(names, " | ")
}

func run() int {
	var (
		n         = flag.Int("n", 256, "population size (>= 2)")
		protocol  = flag.String("protocol", "stable", "protocol: "+protocolNames())
		init      = flag.String("init", "", "initial configuration (default: the protocol's first registered init; see -list)")
		seed      = flag.Uint64("seed", 1, "scheduler seed (runs are deterministic per seed)")
		budget    = flag.Int64("budget", 0, "interaction budget (0 = the protocol's registered default)")
		shards    = flag.String("shards", "0", "run the population on this many shards, or 'auto' to derive the count from -n and the core count (intra-run parallelism; results depend on the resolved shard count, not on the worker pool; sharded runs stop at the exact hitting time, like serial runs)")
		epsilon   = flag.Float64("epsilon", 1.0, "range slack for the interval protocol")
		verbose   = flag.Bool("v", false, "print the full rank assignment")
		list      = flag.Bool("list", false, "print the protocol registry (protocols, inits, default budgets at -n) and exit")
		traceOut  = flag.String("trace", "", "write a per-n-interactions CSV time series to this file (stable protocol only)")
		trials    = flag.Int("trials", 0, "replicate the run this many times and report aggregate statistics")
		parallel  = flag.Int("parallel", 0, "replication workers for -trials: 0 = one per CPU, 1 = serial (results are identical either way)")
		precision = flag.Float64("precision", 0, "with -trials: stop replicating once the 95% CI half-width of the convergence time falls below this fraction of the mean")
		maxtrials = flag.Int("maxtrials", 0, "with -precision: trial ceiling (defaults to -trials)")
		progress  = flag.Bool("progress", false, "with -trials: stream per-trial progress to stderr")
		scheduler = flag.String("scheduler", "", "communication topology, routing the run through the round-based message network: "+schedulerNames()+" (empty = the in-place engines)")
		drop      = flag.Float64("drop", 0, "message-network fault: probability a message is lost in flight")
		dup       = flag.Float64("dup", 0, "message-network fault: probability a message is delivered twice")
		delaymax  = flag.Int("delaymax", 0, "message-network fault: delay each message by up to this many rounds")
		reorder   = flag.Float64("reorder", 0, "message-network fault: probability a round's delivery queue is shuffled")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
		memprof   = flag.String("memprofile", "", "write an allocation profile to this file after the run (pprof format)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		printErr(err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			printErr(err)
		}
	}()

	sched := ssrank.Scheduler(*scheduler)
	netFaults := ssrank.Faults{DropProb: *drop, DupProb: *dup, DelayMax: *delaymax, ReorderProb: *reorder}

	if *list {
		return listProtocols(*n)
	}
	if *parallel != 0 && *trials <= 0 {
		fmt.Fprintln(os.Stderr, "ssrank: -parallel only applies to -trials replication sweeps")
		return 2
	}
	shardCount, err := shard.ParseShards(*shards)
	if err != nil {
		printErr(err)
		return 2
	}
	if (*precision != 0 || *maxtrials != 0 || *progress) && *trials <= 0 {
		fmt.Fprintln(os.Stderr, "ssrank: -precision/-maxtrials/-progress apply to -trials replication sweeps")
		return 2
	}
	if *precision < 0 {
		fmt.Fprintln(os.Stderr, "ssrank: -precision must be >= 0")
		return 2
	}
	if *maxtrials != 0 && *precision == 0 {
		fmt.Fprintln(os.Stderr, "ssrank: -maxtrials is the -precision trial ceiling; without -precision, set -trials directly")
		return 2
	}
	if *trials > 0 {
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "ssrank: -trace and -trials are mutually exclusive")
			return 2
		}
		if *verbose {
			fmt.Fprintln(os.Stderr, "ssrank: -v applies to single runs only, not -trials aggregates")
			return 2
		}
		ceiling := *trials
		if *maxtrials > 0 {
			ceiling = *maxtrials
		}
		return runReplicated(ssrank.Config{
			N:               *n,
			Protocol:        ssrank.Protocol(*protocol),
			Init:            ssrank.Init(*init),
			Seed:            *seed,
			MaxInteractions: *budget,
			Epsilon:         *epsilon,
			Shards:          shardCount,
			Scheduler:       sched,
			Faults:          netFaults,
			// Within a replication sweep the trial pool owns the
			// cores; sharded trials (and message-network deliveries)
			// run their phases serially.
			ShardWorkers: 1,
		}, ceiling, *parallel, *precision, *progress)
	}

	if *traceOut != "" {
		if *protocol != string(ssrank.StableRanking) {
			fmt.Fprintln(os.Stderr, "ssrank: -trace supports only -protocol stable")
			return 2
		}
		if shardCount != 0 && shardCount != 1 {
			fmt.Fprintln(os.Stderr, "ssrank: -trace and -shards are mutually exclusive")
			return 2
		}
		if sched != "" || netFaults != (ssrank.Faults{}) {
			fmt.Fprintln(os.Stderr, "ssrank: -trace probes the in-place engine; it cannot combine with -scheduler or the fault flags")
			return 2
		}
		return runTraced(*n, *init, *seed, *budget, *traceOut)
	}

	res, err := ssrank.Run(ssrank.Config{
		N:               *n,
		Protocol:        ssrank.Protocol(*protocol),
		Init:            ssrank.Init(*init),
		Seed:            *seed,
		MaxInteractions: *budget,
		Epsilon:         *epsilon,
		Shards:          shardCount,
		Scheduler:       sched,
		Faults:          netFaults,
	})
	if err != nil && !errors.Is(err, ssrank.ErrNotConverged) {
		printErr(err)
		return 2
	}

	norm := float64(res.Interactions) / float64(*n) / float64(*n)
	fmt.Printf("protocol=%s n=%d seed=%d\n", *protocol, *n, *seed)
	fmt.Printf("converged=%t interactions=%d (%.2f n²) exact=%t\n",
		res.Converged, res.Interactions, norm, res.Exact)
	if res.Shards > 1 {
		fmt.Printf("shards=%d (resolved)\n", res.Shards)
	}
	if res.Rounds > 0 {
		fmt.Printf("rounds=%d (message network)\n", res.Rounds)
	}
	if res.Leader >= 0 {
		fmt.Printf("leader=agent %d (rank 1)\n", res.Leader)
	}
	if res.Resets > 0 {
		fmt.Printf("resets=%d %v\n", res.Resets, res.ResetBreakdown)
	}
	if *verbose {
		type pair struct{ agent, rank int }
		pairs := make([]pair, 0, len(res.Ranks))
		for a, r := range res.Ranks {
			pairs = append(pairs, pair{a, r})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].rank < pairs[j].rank })
		for _, p := range pairs {
			fmt.Printf("  rank %4d -> agent %d\n", p.rank, p.agent)
		}
	}
	if !res.Converged {
		fmt.Println("warning: budget exhausted before a valid ranking")
		return 1
	}
	return 0
}

// listProtocols prints the registry — the same descriptors the
// library dispatches through.
func listProtocols(n int) int {
	fmt.Printf("%-16s %-6s %-12s %-28s %s\n", "protocol", "self-", "default", "inits", "")
	fmt.Printf("%-16s %-6s %-12s %-28s %s\n", "", "stab.", "budget", "", "")
	for _, d := range ssrank.Descriptors() {
		inits := make([]string, len(d.Inits))
		for i, in := range d.Inits {
			inits[i] = string(in)
		}
		fmt.Printf("%-16s %-6t %-12d %-28s\n",
			d.Protocol, d.SelfStabilizing, d.DefaultBudget(n), strings.Join(inits, ","))
	}
	fmt.Printf("(default budgets at n=%d)\n", n)
	return 0
}

// runReplicated fans the configured run out through the public
// replication API: per-trial seeds derive from (seed, trial) only and
// commits happen in trial order, so the summary is identical at every
// -parallel setting; precision > 0 stops the stream once the 95% CI
// on the convergence time of converged trials is within ±precision of
// its mean.
func runReplicated(cfg ssrank.Config, trials, workers int, precision float64, progress bool) int {
	opt := ssrank.ReplicateOptions{Trials: trials, Workers: workers, Precision: precision}
	if progress {
		opt.OnTrial = func(_, committed int, res ssrank.Result) {
			fmt.Fprintf(os.Stderr, "trial %4d/%-4d converged=%-5t interactions=%d\n",
				committed, trials, res.Converged, res.Interactions)
		}
	}
	rep, err := ssrank.Replicate(cfg, opt)
	if err != nil {
		printErr(err)
		return 2
	}

	fmt.Printf("protocol=%s n=%d seed=%d trials=%d/%d\n",
		cfg.Protocol, cfg.N, cfg.Seed, rep.Trials, trials)
	fmt.Printf("converged=%d/%d\n", rep.Converged, rep.Trials)
	if rep.Converged > 0 {
		ints := rep.Interactions
		fmt.Printf("interactions mean=%.0f ±%.0f (%.2f n²) min=%.0f max=%.0f\n",
			ints.Mean, ints.CI95, ints.Mean/float64(cfg.N)/float64(cfg.N), ints.Min, ints.Max)
		if rep.Resets.Mean > 0 {
			fmt.Printf("mean resets=%.2f\n", rep.Resets.Mean)
		}
	}
	if rep.Converged < rep.Trials {
		fmt.Println("warning: some replications exhausted their budget")
		return 1
	}
	return 0
}

// runTraced streams a StableRanking run through the public stepwise
// API and writes the time series (ranked count, mean phase, resets) as
// CSV — the raw material of Fig. 2-style plots for any registered
// init. The mean-phase probe arrives through the descriptor's named
// probes (Snapshot.Probes), so the path needs no protocol internals.
// One row per window of n²/8 interactions, quiet windows included, and
// the stop is exact: the series ends at the hitting time rather than
// the next window end.
func runTraced(n int, initName string, seed uint64, budget int64, path string) int {
	s, err := ssrank.NewSimulation(ssrank.Config{
		N:        n,
		Protocol: ssrank.StableRanking,
		Init:     ssrank.Init(initName),
		Seed:     seed,
	})
	if err != nil {
		printErr(err)
		return 2
	}

	var b strings.Builder
	b.WriteString("interactions,ranked,mean_phase,resets\n")
	samples := 0
	s.Observe(int64(n)*int64(n)/8, budget, func(snap ssrank.Snapshot) {
		fmt.Fprintf(&b, "%d,%g,%g,%g\n",
			snap.Interactions, float64(snap.RankedCount), snap.Probes["mean_phase"], float64(snap.Resets))
		samples++
	})

	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		printErr(err)
		return 2
	}
	fmt.Printf("traced %d samples over %d interactions -> %s (converged=%t, resets=%d)\n",
		samples, s.Interactions(), path, s.Stable(), s.Resets())
	return 0
}
