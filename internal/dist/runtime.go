package dist

import (
	"errors"
	"fmt"
	"io"
	"net"

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
	// BeginBatch validates and installs the coordinator's class counts
	// for a batch of b interactions and arms recording.
	BeginBatch(b int, counts []int32, track bool) error
	// Phases returns the number of lockstep phases per batch: the intra
	// phase plus one per tournament round.
	Phases() int
	// ExecPhase executes the owned units of phase k and appends the
	// delta section (the modified agents, in first-touch order) to w.
	ExecPhase(k int, w *ckpt.Writer) error
	// ApplyDeltas applies the peers' delta sections, which run to the
	// end of r, to the mirror.
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
	lay   *proto.Layout
	p     P
	r     *shard.Runner[S, P]
	h     AssignHeader
	owned []int // owned cross units, ascending compact id
	track bool
	dirty []int32

	// seen[i] == epoch marks agent i as already in the current phase's
	// dirty list; the epoch advances once per phase.
	seen  []uint32
	epoch uint32
}

// NewRuntime wraps a protocol descriptor as a distributed worker
// runtime.
func NewRuntime[S any, P sim.TouchReporter[S]](d proto.Descriptor[S, P]) Runtime {
	return &runtime[S, P]{d: d, lay: proto.LayoutOf[S]()}
}

func (rt *runtime[S, P]) Install(h *AssignHeader, r *ckpt.Reader) error {
	if h.Layout != rt.lay.Fingerprint {
		return fmt.Errorf("dist: coordinator's %s agent image layout %016x differs from this worker's %016x",
			h.Protocol, h.Layout, rt.lay.Fingerprint)
	}
	instr := readInstr(r, nil)
	st := shard.EngineState{Steps: h.Steps}
	st.Master, st.Shards, st.Classes = ckpt.ReadShardStreams(r, h.Shards, h.Shards*(h.Shards-1)/2)
	if err := r.Err(); err != nil {
		return fmt.Errorf("dist: malformed assignment: %w", err)
	}
	// ReadSlab rejects a frame too short for h.N agents before anything
	// is sized by h.N.
	states, err := rt.d.ReadSlab(h.N, r)
	if err != nil {
		return fmt.Errorf("dist: assignment slab: %w", err)
	}
	p := rt.d.New(h.N)
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
	rt.seen, rt.epoch = make([]uint32, h.N), 0
	return nil
}

// BeginBatch holds the counts to what the coordinator's classifier
// can produce — non-negative, summing to b, b at most the batch
// period — so a corrupt frame cannot make the worker execute, or
// allocate for, more than one batch.
func (rt *runtime[S, P]) BeginBatch(b int, counts []int32, track bool) error {
	if b > shard.BatchPeriod(rt.h.N) {
		return fmt.Errorf("dist: batch of %d interactions exceeds the batch period %d", b, shard.BatchPeriod(rt.h.N))
	}
	sum := 0
	for _, v := range counts {
		if v < 0 {
			return fmt.Errorf("dist: negative class count %d", v)
		}
		sum += int(v)
	}
	if sum != b {
		return fmt.Errorf("dist: class counts sum to %d, want batch size %d", sum, b)
	}
	rt.track = track
	return rt.r.BeginBatch(counts, track, true)
}

func (rt *runtime[S, P]) Phases() int { return 1 + len(rt.r.RoundSchedule()) }

// ExecPhase runs phase k's owned units and reports their endpoint
// logs deduplicated: phase units touch disjoint agents, so the first
// touch of each agent in the logs is the exact modified set.
func (rt *runtime[S, P]) ExecPhase(k int, w *ckpt.Writer) error {
	rt.epoch++
	if rt.epoch == 0 { // wrapped: no stamp may survive from 2^32 phases ago
		clear(rt.seen)
		rt.epoch = 1
	}
	rt.dirty = rt.dirty[:0]
	switch {
	case k == 0:
		for s := rt.h.GroupLo; s < rt.h.GroupHi; s++ {
			rt.r.ExecIntra(s)
			rt.markDirty(rt.r.DirtyIntra(s))
		}
	case k-1 < len(rt.r.RoundSchedule()):
		for _, c := range rt.r.RoundSchedule()[k-1] {
			if s, _ := rt.r.CrossUnitShards(c); s < rt.h.GroupLo || s >= rt.h.GroupHi {
				continue
			}
			rt.r.ExecCross(c)
			rt.markDirty(rt.r.DirtyCross(c))
		}
	default:
		return fmt.Errorf("dist: phase %d out of range", k)
	}
	appendDeltaSection(rt.lay, w, rt.r.States(), rt.dirty)
	return nil
}

// markDirty appends the agents of an endpoint log not yet stamped in
// this phase to the dirty list.
func (rt *runtime[S, P]) markDirty(log []int32) {
	for _, i := range log {
		if rt.seen[i] != rt.epoch {
			rt.seen[i] = rt.epoch
			rt.dirty = append(rt.dirty, i)
		}
	}
}

// ApplyDeltas validates each section, then copies its images straight
// into the slab. A malformed frame may leave the slab partly updated
// (by the sections before the bad one); the worker then fails, and the
// coordinator re-materializes the group from the committed state.
func (rt *runtime[S, P]) ApplyDeltas(r *ckpt.Reader) error {
	states := rt.r.States()
	for r.Remaining() > 0 {
		entries, err := readDeltaSection(rt.lay, len(states), r)
		if err != nil {
			return fmt.Errorf("dist: peer deltas: %w", err)
		}
		applyDeltas(rt.lay, states, entries)
	}
	return nil
}

func (rt *runtime[S, P]) Barrier(w *ckpt.Writer) {
	for s := rt.h.GroupLo; s < rt.h.GroupHi; s++ {
		var recs []shard.TouchRec[S]
		if rt.track {
			recs = rt.r.IntraRecs(s)
		}
		appendRecSection(rt.lay, w, recs)
	}
	for _, c := range rt.owned {
		var recs []shard.TouchRec[S]
		if rt.track {
			recs = rt.r.CrossRecs(c)
		}
		appendRecSection(rt.lay, w, recs)
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
	w := &worker{conn: conn, factory: factory}
	if err := sendHello(conn, &w.out); err != nil {
		return err
	}
	for {
		typ, payload, err := w.in.read(conn, 0)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch typ {
		case frameAssign:
			if w.rt, err = installAssign(factory, payload); err != nil {
				return err
			}
		case frameCounts:
			if w.rt == nil {
				return errors.New("dist: counts frame before assignment")
			}
			if err := w.serveBatch(payload); err != nil {
				return err
			}
			if w.rt == nil {
				if err := sendHello(conn, &w.out); err != nil {
					return err
				}
			}
		case frameStop:
			w.rt = nil
			if err := sendHello(conn, &w.out); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: unexpected frame type %d", typ)
		}
	}
}

// worker is one Serve connection: the live runtime (nil while idle)
// and the frame buffers and counts slice reused across batches.
type worker struct {
	conn    net.Conn
	factory RuntimeFactory
	rt      Runtime
	in      frameReader
	out     frameWriter
	counts  []int32
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
// the peers' sections the coordinator forwards; then report the
// barrier frame and commit. A mid-batch Assign means the coordinator
// abandoned the batch after a peer died — the partial batch state is
// discarded wholesale by reinstalling from the committed sub-blob. A
// mid-batch Stop leaves w.rt nil.
func (w *worker) serveBatch(payload []byte) error {
	r := ckpt.NewReader(payload)
	seq := r.Uvarint()
	b := r.Count(maxBatch)
	track := r.Bool()
	w.counts = w.counts[:0]
	for range r.Elems(maxShards*maxShards, 1) {
		w.counts = append(w.counts, ckpt.Int[int32](r))
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("dist: malformed counts frame: %w", err)
	}
	if err := w.rt.BeginBatch(b, w.counts, track); err != nil {
		return err
	}
	for k := 0; k < w.rt.Phases(); k++ {
		out := w.out.begin(frameDeltas)
		out.Uvarint(seq)
		out.Uvarint(uint64(k))
		if err := w.rt.ExecPhase(k, out); err != nil {
			return err
		}
		if err := w.out.send(w.conn, 0); err != nil {
			return err
		}
		typ, p2, err := w.in.read(w.conn, 0)
		if err != nil {
			return err
		}
		switch typ {
		case frameDeltas:
			mr := ckpt.NewReader(p2)
			mseq, mk := mr.Uvarint(), mr.Uvarint()
			if err := mr.Err(); err != nil {
				return fmt.Errorf("dist: malformed peer deltas: %w", err)
			}
			if mseq != seq || mk != uint64(k) {
				return fmt.Errorf("dist: peer deltas for batch %d phase %d, want %d/%d", mseq, mk, seq, k)
			}
			if err := w.rt.ApplyDeltas(mr); err != nil {
				return err
			}
		case frameAssign:
			w.rt, err = installAssign(w.factory, p2)
			return err
		case frameStop:
			w.rt = nil
			return nil
		default:
			return fmt.Errorf("dist: unexpected frame type %d mid-batch", typ)
		}
	}
	out := w.out.begin(frameBarrier)
	out.Uvarint(seq)
	w.rt.Barrier(out)
	if err := w.out.send(w.conn, 0); err != nil {
		return err
	}
	w.rt.FinishBatch(b)
	return nil
}
