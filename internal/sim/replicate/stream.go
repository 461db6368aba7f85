package replicate

import (
	"math"
	"sync"
	"sync/atomic"

	"ssrank/internal/stats"
)

// Commit describes one trial result as it is committed, in trial-index
// order, to the stream's output prefix.
type Commit[R any] struct {
	// Trial is the index of the committed trial.
	Trial int
	// Committed is the number of trials committed so far, including
	// this one (== Trial+1: commits happen in index order with no gaps).
	Committed int
	// Result is the trial's result.
	Result R
	// Mean and CI95 are the running mean and 95% confidence half-width
	// of the stream's statistic over the committed prefix, this trial
	// included (NaN and 0 while no sample has been accumulated).
	Mean, CI95 float64
}

// Stream configures ReplicateStream.
type Stream[R any] struct {
	// Workers bounds the worker pool (< 1 = one per CPU).
	Workers int
	// Trials is the trial ceiling: the stream never commits more than
	// this many trials, and commits exactly this many unless the
	// precision rule stops it earlier.
	Trials int
	// Root is the experiment root seed; trial i runs with
	// Seed(Root, i).
	Root uint64
	// Stat, when non-nil, maps a committed result to the stream's
	// statistic; ok = false leaves the trial out of it (e.g. a trial
	// that exhausted its budget has no convergence time). Values fold
	// into a Welford accumulator in commit order, which Commit reports
	// and Rel stops on.
	Stat func(R) (float64, bool)
	// Rel, when > 0, stops the stream once the statistic's 95% CI
	// half-width falls to Rel·|mean| (see met). The output then
	// freezes at the committed prefix. Because commits are delivered
	// in trial order regardless of which worker finished first, the
	// decision is a pure function of that prefix — and therefore
	// identical at every worker count. Trials already in flight past
	// the stop point complete but their results are discarded.
	Rel float64
	// OnCommit, when non-nil, observes every commit in trial-index
	// order — the progress hook. It runs on the caller's goroutine
	// and is not called after the stop.
	OnCommit func(c Commit[R])
}

// DefaultMinTrials is the number of statistic samples the precision
// rule insists on before its sequential CI is allowed to stop a
// stream.
const DefaultMinTrials = 8

// met reports whether the statistic samples folded into acc meet the
// relative precision target rel: ci95_half ≤ rel·|mean|.
//
// The minimum is enforced on acc.N() — accumulated statistic samples,
// not committed trials — so a prefix whose trials mostly failed
// (ok=false, excluded from the CI) cannot stop on a two-point
// interval. A zero-spread sample needs 2·DefaultMinTrials values
// before it stops: "constant so far" is not proof of a constant
// statistic (an indicator whose rate is small looks constant for a
// long time), and by the rule of three, 2·DefaultMinTrials straight
// identical Bernoulli outcomes at least bound the opposite-outcome
// rate near 3/(2·DefaultMinTrials) — while a genuinely deterministic
// statistic only pays the few extra trials once.
func met(acc *stats.Running, rel float64) bool {
	if acc.N() < DefaultMinTrials {
		return false
	}
	r := acc.RelCI95()
	if r == 0 {
		return acc.N() >= 2*DefaultMinTrials
	}
	return !math.IsInf(r, 1) && r <= rel
}

// ReplicateStream runs up to s.Trials independent trials of run and
// returns the committed prefix of results in trial order. run receives
// the trial index and the trial's deterministic seed Seed(s.Root,
// trial) and must derive all of its randomness from that seed. Results
// flow through an ordered commit pipeline (buffered until every
// earlier trial has committed), so the statistic, the stop and
// OnCommit see them in trial-index order even when a fast later trial
// finishes before a slow earlier one. The returned prefix is
// bit-identical at any worker count.
func ReplicateStream[R any](s Stream[R], run func(trial int, seed uint64) R) []R {
	trials := s.Trials
	if trials <= 0 {
		return nil
	}
	results := make([]R, trials)
	var acc stats.Running
	commit := func(i int, r R) (stop bool) {
		results[i] = r
		if s.Stat != nil {
			if v, ok := s.Stat(r); ok {
				acc.Add(v)
			}
		}
		if s.OnCommit != nil {
			s.OnCommit(Commit[R]{Trial: i, Committed: i + 1, Result: r, Mean: acc.Mean(), CI95: acc.CI95Half()})
		}
		return s.Rel > 0 && met(&acc, s.Rel)
	}

	w := workers(s.Workers, trials)
	if w == 1 {
		for i := range results {
			if commit(i, run(i, Seed(s.Root, i))) {
				return results[:i+1]
			}
		}
		return results
	}

	// Parallel path. Workers claim trial indices from an atomic
	// counter and speculate ahead of the commit frontier; `horizon`
	// only throttles that speculation after a stop — it never affects
	// which results are committed, so it is free to race.
	var (
		next    atomic.Int64
		horizon atomic.Int64
		wg      sync.WaitGroup
	)
	horizon.Store(int64(trials))
	type item struct {
		trial int
		r     R
	}
	ch := make(chan item, w)
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= trials || int64(i) >= horizon.Load() {
					return
				}
				ch <- item{i, run(i, Seed(s.Root, i))}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()

	// Commit pipeline, on the caller's goroutine: buffer out-of-order
	// arrivals, commit in trial-index order, and after a stop keep
	// draining the channel (discarding) so workers never block.
	pending := make(map[int]R)
	committed := 0
	stopped := false
	for it := range ch {
		if stopped {
			continue
		}
		pending[it.trial] = it.r
		for {
			r, ok := pending[committed]
			if !ok {
				break
			}
			delete(pending, committed)
			committed++
			if commit(committed-1, r) {
				stopped = true
				horizon.Store(int64(committed))
				break
			}
		}
	}
	return results[:committed]
}
