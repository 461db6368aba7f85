package replicate

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"ssrank/internal/rng"
)

// adversarialDelay makes earlier trials finish later: trial 0 is the
// slowest, the last trial returns almost immediately. Any commit-order
// bug (committing in completion order instead of trial order) surfaces
// under this schedule.
func adversarialDelay(trial, trials int) {
	time.Sleep(time.Duration(trials-trial) * time.Millisecond)
}

// TestStreamMatchesReplicate pins that the statistic and the progress
// hook only observe: a stream with Stat and OnCommit attached but no
// precision stop (Rel = 0) commits every trial and returns exactly the
// results of the bare one-worker replication, at every worker count.
func TestStreamMatchesReplicate(t *testing.T) {
	run := func(trial int, seed uint64) [2]uint64 {
		return [2]uint64{uint64(trial), rng.New(seed).Uint64()}
	}
	want := ReplicateStream(Stream[[2]uint64]{Workers: 1, Trials: 48, Root: 11}, run)
	for _, workers := range []int{1, 4, 16} {
		commits := 0
		got := ReplicateStream(Stream[[2]uint64]{
			Workers:  workers,
			Trials:   48,
			Root:     11,
			Stat:     func(r [2]uint64) (float64, bool) { return float64(r[1] % 7), true },
			OnCommit: func(Commit[[2]uint64]) { commits++ },
		}, run)
		if len(got) != len(want) || commits != len(want) {
			t.Fatalf("workers=%d: %d results, %d commits, want %d", workers, len(got), commits, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d trial %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestStreamCommitsInTrialOrder(t *testing.T) {
	const trials = 24
	var order []int
	got := ReplicateStream(Stream[int]{
		Workers: 8,
		Trials:  trials,
		Root:    3,
		OnCommit: func(c Commit[int]) {
			order = append(order, c.Trial)
			if c.Committed != c.Trial+1 {
				t.Errorf("commit %d reports Committed=%d", c.Trial, c.Committed)
			}
		},
	}, func(trial int, seed uint64) int {
		adversarialDelay(trial, trials)
		return trial * trial
	})
	if len(order) != trials {
		t.Fatalf("%d commits, want %d", len(order), trials)
	}
	for i, tr := range order {
		if tr != i {
			t.Fatalf("commit order %v: position %d holds trial %d", order, i, tr)
		}
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestStreamEarlyAbortPrefix pins the early-stop contract: a stop
// firing at commit k freezes the output at exactly the first k
// trials, and OnCommit is not called again, at every worker count,
// even when in-flight later trials have already completed. A constant
// statistic is not trusted at DefaultMinTrials samples (it may be a
// rare-event indicator) and stops at exactly twice that.
func TestStreamEarlyAbortPrefix(t *testing.T) {
	const trials, stopAt = 40, 2 * DefaultMinTrials
	for _, workers := range []int{1, 4, 16} {
		var commits atomic.Int32
		got := ReplicateStream(Stream[uint64]{
			Workers: workers,
			Trials:  trials,
			Root:    5,
			Stat:    func(uint64) (float64, bool) { return 7, true },
			Rel:     0.01,
			OnCommit: func(c Commit[uint64]) {
				commits.Add(1)
				if c.Mean != 7 || c.CI95 != 0 {
					t.Errorf("commit %d reports mean %v ± %v, want 7 ± 0", c.Trial, c.Mean, c.CI95)
				}
			},
		}, func(trial int, seed uint64) uint64 {
			adversarialDelay(trial, trials)
			return seed
		})
		if len(got) != stopAt {
			t.Fatalf("workers=%d: committed %d trials, want %d", workers, len(got), stopAt)
		}
		if int(commits.Load()) != stopAt {
			t.Fatalf("workers=%d: OnCommit ran %d times, want %d", workers, commits.Load(), stopAt)
		}
		for i := range got {
			if got[i] != Seed(5, i) {
				t.Fatalf("workers=%d: result[%d] corrupted", workers, i)
			}
		}
	}
}

// streamStat is the per-trial statistic of the invariance test: a
// deterministic function of the trial seed alone, noisy enough that
// the precision rule stops well after DefaultMinTrials but well before
// the ceiling.
func streamStat(seed uint64) float64 {
	return 100 + 100*(rng.New(seed).Float64()-0.5)
}

// TestStreamPrecisionWorkerInvariance is the determinism regression
// test of the CI-adaptive stopping rule: with a precision stop, the
// committed result prefix must be bit-identical at 1, 4, and 16
// workers — including under an adversarial completion schedule where
// every later trial finishes before its predecessors. The stop
// decision is a pure function of the committed prefix, so neither the
// stop point nor any committed value may move with the worker count.
func TestStreamPrecisionWorkerInvariance(t *testing.T) {
	const trials = 96
	runFor := func(delay bool) func(int, uint64) float64 {
		return func(trial int, seed uint64) float64 {
			if delay {
				adversarialDelay(trial, trials)
			}
			return streamStat(seed)
		}
	}
	results := map[int][]float64{}
	for _, workers := range []int{1, 4, 16} {
		got := ReplicateStream(Stream[float64]{
			Workers: workers,
			Trials:  trials,
			Root:    0x5eed,
			Stat:    func(v float64) (float64, bool) { return v, true },
			Rel:     0.1,
		}, runFor(workers > 1))
		results[workers] = got
	}
	base := results[1]
	if len(base) < DefaultMinTrials || len(base) >= trials {
		t.Fatalf("stop point %d not strictly inside (%d, %d): test statistic mistuned",
			len(base), DefaultMinTrials, trials)
	}
	for _, workers := range []int{4, 16} {
		got := results[workers]
		if len(got) != len(base) {
			t.Fatalf("workers=%d stopped at %d trials, workers=1 at %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: committed result %d differs bitwise", workers, i)
			}
		}
	}
}

func TestStatExcludesFailedTrials(t *testing.T) {
	// Failed trials (ok=false) must not feed the CI: with every trial
	// failed the rule can never fire, the stream runs to its ceiling
	// and no commit reports a mean.
	got := ReplicateStream(Stream[int]{
		Workers: 4,
		Trials:  32,
		Root:    1,
		Stat:    func(int) (float64, bool) { return 0, false },
		Rel:     0.5,
		OnCommit: func(c Commit[int]) {
			if !math.IsNaN(c.Mean) {
				t.Errorf("commit %d reports mean %v over no samples", c.Trial, c.Mean)
			}
		},
	}, func(trial int, _ uint64) int { return trial })
	if len(got) != 32 {
		t.Fatalf("stream with all-failed statistic stopped at %d/32", len(got))
	}
}

// TestPrecisionMetNeedsSamplesNotCommits pins the guard against
// failed-trial-diluted prefixes: the minimum counts accumulated
// statistic values, so a long committed prefix whose trials mostly
// failed must not stop on a two-point CI.
func TestPrecisionMetNeedsSamplesNotCommits(t *testing.T) {
	// 20 committed trials, but only trials 0 and 1 converged, with
	// nearly equal statistics — a tiny two-point CI.
	got := ReplicateStream(Stream[int]{
		Workers: 1,
		Trials:  20,
		Root:    1,
		Stat:    func(trial int) (float64, bool) { return 100 + float64(trial), trial < 2 },
		Rel:     0.05,
	}, func(trial int, _ uint64) int { return trial })
	if len(got) != 20 {
		t.Fatalf("stream stopped at %d/20 on a two-sample CI", len(got))
	}
}

func TestStreamZeroTrials(t *testing.T) {
	got := ReplicateStream(Stream[int]{
		Workers:  4,
		Trials:   0,
		Root:     1,
		Stat:     func(int) (float64, bool) { return 1, true },
		Rel:      0.1,
		OnCommit: func(Commit[int]) { t.Error("OnCommit called on a 0-trial stream") },
	}, func(int, uint64) int { return 1 })
	if got != nil {
		t.Fatalf("0-trial stream = %v, want nil", got)
	}
}
