package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"

	"ssrank/internal/ckpt"
	"ssrank/internal/proto"
	"ssrank/internal/sim"
	"ssrank/internal/sim/shard"
)

// Runtime is the type-erased worker side of one assignment: a full
// population mirror that executes only its owned units. Serve drives
// it through the frame protocol; NewRuntime builds the generic
// implementation for a concrete protocol descriptor.
type Runtime interface {
	// Install materializes the assignment: decode the instrumentation
	// baseline, stream table and agent slab following the header, build
	// the engine, and restore the committed position.
	Install(h *AssignHeader, r *ckpt.Reader) error
	// BeginBatch installs the coordinator's class counts and arms
	// recording.
	BeginBatch(counts []int32, track bool) error
	// Phases returns the number of lockstep phases per batch: the intra
	// phase plus one per tournament round.
	Phases() int
	// ExecPhase executes the owned units of phase k and appends the
	// delta section (sorted modified agents) to w.
	ExecPhase(k int, w *ckpt.Writer) error
	// ApplyDeltas applies a merged delta section to the mirror.
	ApplyDeltas(r *ckpt.Reader) error
	// Barrier appends the barrier sections: per-owned-unit touch
	// records, owned stream positions, instrumentation vector.
	Barrier(w *ckpt.Writer)
	// FinishBatch commits the batch's step count locally.
	FinishBatch(b int)
}

// RuntimeFactory builds a Runtime for an assignment's run identity —
// the worker-side registry hook (the facade resolves the protocol name
// to a descriptor and returns NewRuntime of it).
type RuntimeFactory func(h *AssignHeader) (Runtime, error)

// runtime is the generic Runtime: a full shard.Runner mirror of which
// only the owned unit range executes.
type runtime[S any, P sim.TouchReporter[S]] struct {
	d     proto.Descriptor[S, P]
	p     P
	r     *shard.Runner[S, P]
	h     AssignHeader
	owned []int // owned cross units, ascending compact id
	track bool
	dirty []int32
}

// NewRuntime wraps a protocol descriptor as a distributed worker
// runtime.
func NewRuntime[S any, P sim.TouchReporter[S]](d proto.Descriptor[S, P]) Runtime {
	return &runtime[S, P]{d: d}
}

func (rt *runtime[S, P]) Install(h *AssignHeader, r *ckpt.Reader) error {
	instr := readInstr(r)
	st := shard.EngineState{Steps: h.Steps}
	st.Master, st.Shards, st.Classes = ckpt.ReadShardStreams(r, h.Shards, h.Shards*(h.Shards-1)/2)
	if err := r.Err(); err != nil {
		return fmt.Errorf("dist: malformed assignment: %w", err)
	}
	// The slab that follows holds h.N agents of at least one byte each:
	// a frame too short for them is rejected before anything is sized
	// by h.N.
	if h.N > r.Remaining() {
		return fmt.Errorf("dist: assignment for n=%d carries only %d slab bytes", h.N, r.Remaining())
	}
	p := rt.d.New(h.N)
	states, err := rt.d.ReadSlab(p, h.N, r)
	if err != nil {
		return fmt.Errorf("dist: assignment slab: %w", err)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("dist: malformed assignment: %w", err)
	}
	if len(st.Shards) != h.Shards {
		return fmt.Errorf("dist: assignment has %d shard streams, want %d", len(st.Shards), h.Shards)
	}
	if rt.d.SetInstr != nil {
		rt.d.SetInstr(p, instr)
	}
	eng := shard.New[S](p, states, h.Seed, h.Shards, 1)
	if eng.Shards() != h.Shards {
		return fmt.Errorf("dist: %d shards not realizable for n=%d", h.Shards, h.N)
	}
	if err := eng.SetEngineState(st); err != nil {
		return fmt.Errorf("dist: assignment state: %w", err)
	}
	rt.p, rt.r, rt.h = p, eng, *h
	rt.owned = crossOwned(eng, h.GroupLo, h.GroupHi)
	return nil
}

func (rt *runtime[S, P]) BeginBatch(counts []int32, track bool) error {
	rt.track = track
	return rt.r.BeginBatch(counts, track, true)
}

func (rt *runtime[S, P]) Phases() int { return 1 + len(rt.r.RoundSchedule()) }

func (rt *runtime[S, P]) ExecPhase(k int, w *ckpt.Writer) error {
	dirty := rt.dirty[:0]
	switch {
	case k == 0:
		for s := rt.h.GroupLo; s < rt.h.GroupHi; s++ {
			rt.r.ExecIntra(s)
			dirty = append(dirty, rt.r.DirtyIntra(s)...)
		}
	case k-1 < len(rt.r.RoundSchedule()):
		for _, c := range rt.r.RoundSchedule()[k-1] {
			if s, _ := rt.r.CrossUnitShards(c); s < rt.h.GroupLo || s >= rt.h.GroupHi {
				continue
			}
			rt.r.ExecCross(c)
			dirty = append(dirty, rt.r.DirtyCross(c)...)
		}
	default:
		return fmt.Errorf("dist: phase %d out of range", k)
	}
	// Phase units touch disjoint agents, so a sort+dedup of the raw
	// endpoint log is the exact modified set.
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	rt.dirty = dirty
	appendDeltaIndexed(rt.d, rt.p, w, rt.r.States(), dirty)
	return nil
}

func (rt *runtime[S, P]) ApplyDeltas(r *ckpt.Reader) error {
	entries, err := readDeltaSection[S](rt.d, rt.p, len(rt.r.States()), r, nil)
	if err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("dist: malformed merged deltas: %w", err)
	}
	states := rt.r.States()
	for i := range entries {
		states[entries[i].idx] = entries[i].s
	}
	return nil
}

func (rt *runtime[S, P]) Barrier(w *ckpt.Writer) {
	for s := rt.h.GroupLo; s < rt.h.GroupHi; s++ {
		var recs []shard.TouchRec[S]
		if rt.track {
			recs = rt.r.IntraRecs(s)
		}
		appendRecSection(rt.d, rt.p, w, recs)
	}
	for _, c := range rt.owned {
		var recs []shard.TouchRec[S]
		if rt.track {
			recs = rt.r.CrossRecs(c)
		}
		appendRecSection(rt.d, rt.p, w, recs)
	}
	for s := rt.h.GroupLo; s < rt.h.GroupHi; s++ {
		ckpt.WritePairState(w, rt.r.ShardStream(s))
	}
	for _, c := range rt.owned {
		ckpt.WriteRNGState(w, rt.r.ClassStream(c))
	}
	var instr []int64
	if rt.d.Instr != nil {
		instr = rt.d.Instr(rt.p)
	}
	appendInstr(w, instr)
}

func (rt *runtime[S, P]) FinishBatch(b int) { rt.r.FinishBatch(b) }

// Serve runs the worker side of the protocol on one coordinator
// connection: greet, then loop over assignments and batches until the
// connection closes (clean EOF returns nil — the coordinator or its
// process went away and the caller may redial). A Stop frame returns
// the worker to idle on the same connection with a fresh greeting, so
// pooled connections serve many runs.
func Serve(conn net.Conn, factory RuntimeFactory) error {
	if err := sendHello(conn); err != nil {
		return err
	}
	var rt Runtime
	for {
		typ, payload, err := readFrame(conn, 0)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch typ {
		case frameAssign:
			if rt, err = installAssign(factory, payload); err != nil {
				return err
			}
		case frameCounts:
			if rt == nil {
				return errors.New("dist: counts frame before assignment")
			}
			var cont bool
			if rt, cont, err = serveBatch(conn, rt, factory, payload); err != nil {
				return err
			}
			if !cont {
				rt = nil
				if err := sendHello(conn); err != nil {
					return err
				}
			}
		case frameStop:
			rt = nil
			if err := sendHello(conn); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: unexpected frame type %d", typ)
		}
	}
}

// installAssign decodes an Assign frame and builds + installs the
// runtime for it.
func installAssign(factory RuntimeFactory, payload []byte) (Runtime, error) {
	r := ckpt.NewReader(payload)
	h, err := decodeAssignHeader(r)
	if err != nil {
		return nil, err
	}
	rt, err := factory(&h)
	if err != nil {
		return nil, err
	}
	if err := rt.Install(&h, r); err != nil {
		return nil, err
	}
	return rt, nil
}

// serveBatch executes one batch in lockstep with the coordinator:
// per phase, run the owned units, report the delta section, and apply
// the merged broadcast; then report the barrier frame and commit. A
// mid-batch Assign means the coordinator abandoned the batch after a
// peer died — the partial batch state is discarded wholesale by
// reinstalling from the committed sub-blob. Returns the (possibly
// reinstalled) runtime and whether the assignment is still live
// (false after a mid-batch Stop).
func serveBatch(conn net.Conn, rt Runtime, factory RuntimeFactory, payload []byte) (Runtime, bool, error) {
	r := ckpt.NewReader(payload)
	seq := r.Uvarint()
	b := r.Count(maxBatch)
	track := r.Bool()
	cnt := r.Elems(maxShards*maxShards, 1)
	counts := make([]int32, cnt)
	for i := range counts {
		counts[i] = ckpt.Int[int32](r)
	}
	if err := r.Close(); err != nil {
		return rt, false, fmt.Errorf("dist: malformed counts frame: %w", err)
	}
	if err := rt.BeginBatch(counts, track); err != nil {
		return rt, false, err
	}
	for k := 0; k < rt.Phases(); k++ {
		var w ckpt.Writer
		w.Uvarint(seq)
		w.Uvarint(uint64(k))
		if err := rt.ExecPhase(k, &w); err != nil {
			return rt, false, err
		}
		if err := writeFrame(conn, 0, frameDeltas, w.Bytes()); err != nil {
			return rt, false, err
		}
		typ, p2, err := readFrame(conn, 0)
		if err != nil {
			return rt, false, err
		}
		switch typ {
		case frameDeltas:
			mr := ckpt.NewReader(p2)
			mseq, mk := mr.Uvarint(), mr.Uvarint()
			if err := mr.Err(); err != nil {
				return rt, false, fmt.Errorf("dist: malformed merged deltas: %w", err)
			}
			if mseq != seq || mk != uint64(k) {
				return rt, false, fmt.Errorf("dist: merged deltas for batch %d phase %d, want %d/%d", mseq, mk, seq, k)
			}
			if err := rt.ApplyDeltas(mr); err != nil {
				return rt, false, err
			}
		case frameAssign:
			nrt, err := installAssign(factory, p2)
			if err != nil {
				return rt, false, err
			}
			return nrt, true, nil
		case frameStop:
			return nil, false, nil
		default:
			return rt, false, fmt.Errorf("dist: unexpected frame type %d mid-batch", typ)
		}
	}
	var w ckpt.Writer
	w.Uvarint(seq)
	rt.Barrier(&w)
	if err := writeFrame(conn, 0, frameBarrier, w.Bytes()); err != nil {
		return rt, false, err
	}
	rt.FinishBatch(b)
	return rt, true, nil
}
