package dist

import (
	"fmt"
	"math"

	"ssrank/internal/ckpt"
	"ssrank/internal/proto"
	"ssrank/internal/sim"
	"ssrank/internal/sim/shard"
)

// RunID is the identity of one distributed run: exactly the Config
// fields the sharded trajectory depends on. Every process of a run
// derives its descriptor, engine and schedule from these six values,
// which is what makes the result independent of worker count and
// placement.
type RunID struct {
	Protocol string
	Init     string
	N        int
	Seed     uint64
	Epsilon  float64
	Shards   int
}

// AssignHeader heads an Assign frame: the run identity, the receiving
// worker's contiguous shard group [GroupLo, GroupHi), and the committed
// interaction count the enclosed checkpoint sub-blob resumes from.
type AssignHeader struct {
	RunID
	GroupLo, GroupHi int
	Steps            int64
}

// appendAssignHeader writes the header fields in wire order.
func appendAssignHeader(w *ckpt.Writer, h AssignHeader) {
	w.String(h.Protocol)
	w.String(h.Init)
	w.Uvarint(uint64(h.N))
	w.U64(h.Seed)
	w.F64(h.Epsilon)
	w.Uvarint(uint64(h.Shards))
	w.Uvarint(uint64(h.GroupLo))
	w.Uvarint(uint64(h.GroupHi))
	w.Varint(h.Steps)
}

// decodeAssignHeader reads and validates an Assign header, leaving r
// positioned at the instrumentation baseline.
func decodeAssignHeader(r *ckpt.Reader) (AssignHeader, error) {
	var h AssignHeader
	h.Protocol = r.String()
	h.Init = r.String()
	h.N = r.Count(math.MaxInt32)
	h.Seed = r.U64()
	h.Epsilon = r.F64()
	h.Shards = r.Count(maxShards)
	h.GroupLo = r.Count(maxShards)
	h.GroupHi = r.Count(maxShards)
	h.Steps = r.Varint()
	if err := r.Err(); err != nil {
		return h, fmt.Errorf("dist: malformed assign header: %w", err)
	}
	if h.N < 2 || h.Shards < 1 || h.GroupHi > h.Shards || h.GroupLo < 0 || h.GroupLo >= h.GroupHi || h.Steps < 0 {
		return h, fmt.Errorf("dist: invalid assignment: n=%d shards=%d group=[%d,%d) steps=%d",
			h.N, h.Shards, h.GroupLo, h.GroupHi, h.Steps)
	}
	return h, nil
}

// crossOwned lists the cross units owned by shard group [glo, ghi), in
// ascending compact id order. Ownership follows a unit's lower shard,
// so the contiguous group partition induces a cross-unit partition —
// coordinator and worker derive the same list independently, and the
// barrier frame never needs to carry unit ids.
func crossOwned[S any, P sim.TouchReporter[S]](r *shard.Runner[S, P], glo, ghi int) []int {
	var out []int
	for c := 0; c < r.NumCrossUnits(); c++ {
		if s, _ := r.CrossUnitShards(c); s >= glo && s < ghi {
			out = append(out, c)
		}
	}
	return out
}

// deltaEntry is one modified agent: population index and post-state.
type deltaEntry[S any] struct {
	idx int32
	s   S
}

// appendDeltaIndexed writes a delta section from a duplicate-free
// index list against the live state slab (the worker's send path).
func appendDeltaIndexed[S any, P any](d proto.Descriptor[S, P], p P, w *ckpt.Writer, states []S, idxs []int32) {
	w.Uvarint(uint64(len(idxs)))
	for _, i := range idxs {
		w.Uvarint(uint64(i))
		d.EncodeAgent(p, &states[i], w)
	}
}

// readDeltaSection appends a delta section's entries to into (the
// coordinator's validation path). Indices are bounded by the
// population size.
func readDeltaSection[S any, P any](d proto.Descriptor[S, P], p P, n int, r *ckpt.Reader, into []deltaEntry[S]) ([]deltaEntry[S], error) {
	cnt := r.Count(n)
	for i := 0; i < cnt; i++ {
		idx := r.Count(n - 1)
		s := d.DecodeAgent(p, r)
		if r.Err() != nil {
			break
		}
		into = append(into, deltaEntry[S]{idx: int32(idx), s: s})
	}
	if err := r.Err(); err != nil {
		return into, fmt.Errorf("dist: malformed delta section: %w", err)
	}
	return into, nil
}

// appendRecSection writes one unit's touch records: canonical batch
// position, touch mask, endpoint indices, post-states.
func appendRecSection[S any, P any](d proto.Descriptor[S, P], p P, w *ckpt.Writer, recs []shard.TouchRec[S]) {
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		rec := &recs[i]
		w.Uvarint(uint64(rec.Pos))
		w.Uvarint(uint64(rec.Mask))
		w.Uvarint(uint64(rec.A))
		w.Uvarint(uint64(rec.B))
		d.EncodeAgent(p, &rec.SA, w)
		d.EncodeAgent(p, &rec.SB, w)
	}
}

// readRecSection appends one unit's touch records to into. Positions
// are bounded by the batch size, indices by the population size.
func readRecSection[S any, P any](d proto.Descriptor[S, P], p P, b, n int, r *ckpt.Reader, into []shard.TouchRec[S]) ([]shard.TouchRec[S], error) {
	cnt := r.Count(b)
	for i := 0; i < cnt; i++ {
		pos := r.Count(b - 1)
		mask := r.Uvarint()
		a := r.Count(n - 1)
		bi := r.Count(n - 1)
		sa := d.DecodeAgent(p, r)
		sb := d.DecodeAgent(p, r)
		if r.Err() != nil {
			break
		}
		if mask > 3 {
			return into, fmt.Errorf("dist: touch record mask %d out of range", mask)
		}
		into = append(into, shard.TouchRec[S]{
			Pos: int32(pos), Mask: uint8(mask),
			A: int32(a), B: int32(bi),
			SA: sa, SB: sb,
		})
	}
	if err := r.Err(); err != nil {
		return into, fmt.Errorf("dist: malformed record section: %w", err)
	}
	return into, nil
}

// appendInstr writes an instrumentation vector (empty when the
// protocol registers none).
func appendInstr(w *ckpt.Writer, v []int64) {
	w.Uvarint(uint64(len(v)))
	for _, x := range v {
		w.Varint(x)
	}
}

// readInstr reads an instrumentation vector into v's storage.
func readInstr(r *ckpt.Reader, v []int64) []int64 {
	v = v[:0]
	for range r.Elems(maxInstr, 1) {
		v = append(v, r.Varint())
	}
	return v
}

// addInstr adds instrumentation vector v into dst element-wise,
// growing dst as needed. Vectors counted over disjoint interaction
// sets sum to the whole-run vector — the reconciliation contract of
// proto.Descriptor.Instr.
func addInstr(dst, v []int64) []int64 {
	for len(dst) < len(v) {
		dst = append(dst, 0)
	}
	for i, x := range v {
		dst[i] += x
	}
	return dst
}
