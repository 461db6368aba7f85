package sim

import (
	"errors"
	"reflect"
	"testing"
)

// counter is a trivial protocol: both agents increment on interaction.
type counter struct{}

func (counter) Transition(u, v *int) { *u++; *v++ }

// adopt is a one-way epidemic over booleans: the responder adopts the
// initiator's true value.
type adopt struct{}

func (adopt) Transition(u, v *bool) {
	if *u {
		*v = true
	}
}

func TestStepCountsInteractions(t *testing.T) {
	r := New[int](counter{}, make([]int, 4), 1)
	r.Step()
	r.Run(9)
	if r.Steps() != 10 {
		t.Fatalf("Steps() = %d, want 10", r.Steps())
	}
	sum := 0
	for _, v := range r.States() {
		sum += v
	}
	if sum != 20 {
		t.Fatalf("total increments = %d, want 20 (two per interaction)", sum)
	}
}

func TestNewPanicsOnTinyPopulation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 1 agent did not panic")
		}
	}()
	New[int](counter{}, make([]int, 1), 1)
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		r := New[int](counter{}, make([]int, 8), 42)
		r.Run(1000)
		return r.Snapshot()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("agent %d differs across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	r := New[int](counter{}, make([]int, 4), 1)
	snap := r.Snapshot()
	r.Run(100)
	for _, v := range snap {
		if v != 0 {
			t.Fatal("snapshot mutated by subsequent run")
		}
	}
}

func TestPollImmediate(t *testing.T) {
	r := New[int](counter{}, make([]int, 4), 1)
	calls := 0
	steps, err := Poll(r, 0, 100, func(int64, []int) bool { calls++; return true })
	if err != nil || steps != 0 || r.Steps() != 0 || calls != 1 {
		t.Fatalf("Poll on satisfied condition: steps=%d err=%v ran=%d calls=%d", steps, err, r.Steps(), calls)
	}
}

func TestPollBudget(t *testing.T) {
	r := New[int](counter{}, make([]int, 4), 1)
	steps, err := Poll(r, 7, 100, func(int64, []int) bool { return false })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if steps != 100 || r.Steps() != 100 {
		t.Fatalf("steps = %d (engine at %d), want exactly the budget 100", steps, r.Steps())
	}
}

func TestPollEpidemic(t *testing.T) {
	states := make([]bool, 64)
	states[0] = true
	r := New[bool](adopt{}, states, 3)
	all := func(_ int64, ss []bool) bool {
		for _, s := range ss {
			if !s {
				return false
			}
		}
		return true
	}
	steps, err := Poll(r, 0, 1_000_000, all)
	if err != nil {
		t.Fatalf("epidemic did not complete: %v", err)
	}
	if steps == 0 || steps%64 != 0 {
		t.Fatalf("epidemic completed at step %d, want a positive multiple of n = 64", steps)
	}
}

// TestObserveCadence pins Poll's sampling: once at the start, after
// every `every` interactions, and on a final chunk shortened to the
// budget; every < 1 samples every n interactions.
func TestObserveCadence(t *testing.T) {
	for _, tc := range []struct {
		every, maxSteps int64
		want            []int64
	}{
		{10, 35, []int64{0, 10, 20, 30, 35}},
		{0, 10, []int64{0, 4, 8, 10}},
	} {
		r := New[int](counter{}, make([]int, 4), 1)
		var at []int64
		Poll(r, tc.every, tc.maxSteps, func(steps int64, _ []int) bool {
			at = append(at, steps)
			return false
		})
		if !reflect.DeepEqual(at, tc.want) {
			t.Fatalf("every=%d: observations at %v, want %v", tc.every, at, tc.want)
		}
	}
}

func TestObserveStops(t *testing.T) {
	r := New[int](counter{}, make([]int, 4), 1)
	steps, err := Poll(r, 5, 1000, func(_ int64, ss []int) bool {
		return ss[0]+ss[1]+ss[2]+ss[3] >= 20
	})
	// Two increments per interaction: the sum reaches 20 at step 10,
	// the second sample.
	if err != nil || steps != 10 || r.Steps() != 10 {
		t.Fatalf("Poll stopped at %d (engine at %d, err %v), want the first satisfying sample 10", steps, r.Steps(), err)
	}
}

func TestSetState(t *testing.T) {
	r := New[int](counter{}, make([]int, 4), 1)
	r.SetState(2, 99)
	if r.States()[2] != 99 {
		t.Fatal("SetState did not apply")
	}
}

func BenchmarkEngineStep(b *testing.B) {
	r := New[int](counter{}, make([]int, 1024), 1)
	b.ResetTimer()
	r.Run(int64(b.N))
}
