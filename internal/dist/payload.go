package dist

import (
	"encoding/binary"
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
// worker's contiguous shard group [GroupLo, GroupHi), the committed
// interaction count the enclosed checkpoint sub-blob resumes from, and
// the fingerprint of the coordinator's agent image layout, which the
// worker's own must match.
type AssignHeader struct {
	RunID
	GroupLo, GroupHi int
	Steps            int64
	Layout           uint64
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
	w.U64(h.Layout)
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
	h.Layout = r.U64()
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

// A delta section is a uvarint entry count followed by fixed-width
// entries: the agent's population index as a u32 LE, then its image
// (proto.Layout). Sections are concatenated as they are; a reader needs no
// per-entry framing.

// appendDeltaSection writes a delta section from a duplicate-free
// index list against the live state slab (the worker's send path).
func appendDeltaSection[S any](l *proto.Layout, w *ckpt.Writer, states []S, idxs []int32) {
	w.Uvarint(uint64(len(idxs)))
	e := 4 + l.Size
	buf := w.Extend(len(idxs) * e)
	for k, i := range idxs {
		ent := buf[k*e : (k+1)*e]
		binary.LittleEndian.PutUint32(ent, uint32(i))
		proto.PutImage(l, ent[4:], &states[i])
	}
}

// readDeltaSection validates the delta section at the head of r for a
// population of n and returns its entries, which alias r's input. A
// count the remaining bytes cannot hold, an index ≥ n or an invalid
// image rejects the whole section before any of it is used.
func readDeltaSection(l *proto.Layout, n int, r *ckpt.Reader) ([]byte, error) {
	e := 4 + l.Size
	body := r.Next(r.Elems(n, e) * e)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dist: malformed delta section: %w", err)
	}
	for ent := body; len(ent) > 0; ent = ent[e:] {
		if i := binary.LittleEndian.Uint32(ent); i >= uint32(n) {
			return nil, fmt.Errorf("dist: delta entry for agent %d of %d", i, n)
		}
		if !l.Valid(ent[4:e]) {
			return nil, l.Why(ent[4:e])
		}
	}
	return body, nil
}

// applyDeltas copies the entries of validated delta sections onto the
// slab.
func applyDeltas[S any](l *proto.Layout, states []S, entries []byte) {
	e := 4 + l.Size
	for ; len(entries) > 0; entries = entries[e:] {
		proto.LoadImage(&states[binary.LittleEndian.Uint32(entries)], entries[4:e])
	}
}

// recHeader is a touch record's fixed part: canonical batch position,
// endpoint indices A and B (u32 LE each), then the touch mask byte. The
// post-states SA and SB follow as images.
const recHeader = 13

// appendRecSection writes one unit's touch records: a uvarint count,
// then fixed-width records.
func appendRecSection[S any](l *proto.Layout, w *ckpt.Writer, recs []shard.TouchRec[S]) {
	w.Uvarint(uint64(len(recs)))
	e := recHeader + 2*l.Size
	buf := w.Extend(len(recs) * e)
	for k := range recs {
		rec, ent := &recs[k], buf[k*e:(k+1)*e]
		binary.LittleEndian.PutUint32(ent, uint32(rec.Pos))
		binary.LittleEndian.PutUint32(ent[4:], uint32(rec.A))
		binary.LittleEndian.PutUint32(ent[8:], uint32(rec.B))
		ent[12] = rec.Mask
		proto.PutImage(l, ent[recHeader:], &rec.SA)
		proto.PutImage(l, ent[recHeader+l.Size:], &rec.SB)
	}
}

// readRecSection appends one unit's touch records to into. Positions
// are bounded by the batch size b, indices by the population size n.
func readRecSection[S any](l *proto.Layout, b, n int, r *ckpt.Reader, into []shard.TouchRec[S]) ([]shard.TouchRec[S], error) {
	e := recHeader + 2*l.Size
	body := r.Next(r.Elems(b, e) * e)
	if err := r.Err(); err != nil {
		return into, fmt.Errorf("dist: malformed record section: %w", err)
	}
	for ; len(body) > 0; body = body[e:] {
		pos := binary.LittleEndian.Uint32(body)
		a := binary.LittleEndian.Uint32(body[4:])
		bi := binary.LittleEndian.Uint32(body[8:])
		mask := body[12]
		if pos >= uint32(b) || a >= uint32(n) || bi >= uint32(n) || mask > 3 {
			return into, fmt.Errorf("dist: touch record (pos %d, agents %d/%d, mask %d) out of range", pos, a, bi, mask)
		}
		sa, sb := body[recHeader:recHeader+l.Size], body[recHeader+l.Size:e]
		if !l.Valid(sa) {
			return into, l.Why(sa)
		}
		if !l.Valid(sb) {
			return into, l.Why(sb)
		}
		into = append(into, shard.TouchRec[S]{Pos: int32(pos), Mask: mask, A: int32(a), B: int32(bi)})
		rec := &into[len(into)-1]
		proto.LoadImage(&rec.SA, sa)
		proto.LoadImage(&rec.SB, sb)
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
