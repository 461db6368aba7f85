package sim

import "ssrank/internal/rng"

// EngineState is the exportable scheduler position of a serial Runner:
// the step counter and the pair-stream position. Together with a
// serialized configuration (the state section of proto's slab codec,
// Descriptor.WriteState) it reconstructs a Runner mid-run — the restored Runner executes exactly
// the interactions the captured one would have executed next, so a
// checkpointed run resumes byte-identically.
type EngineState struct {
	// Steps is the number of interactions executed when the state was
	// captured.
	Steps int64
	// Pairs is the scheduler's pair-stream position.
	Pairs rng.PairBatchState
}

// EngineState captures the Runner's scheduler position.
func (r *Runner[S, P]) EngineState() EngineState {
	return EngineState{Steps: r.steps, Pairs: r.pairs.State()}
}

// SetEngineState restores a position captured by EngineState on a
// Runner over the same population size. The caller is responsible for
// having restored the matching configuration (the states slice passed
// to New); the engine cannot verify that pairing.
func (r *Runner[S, P]) SetEngineState(st EngineState) error {
	if err := r.pairs.SetState(st.Pairs); err != nil {
		return err
	}
	r.steps = st.Steps
	return nil
}
