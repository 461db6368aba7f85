package proto

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"ssrank/internal/ckpt"
)

// The agent-slab codec: the one encoding of a run's mutable protocol
// state, derived from the state type's layout (layout.go) and the
// descriptor's instrumentation vector (Instr, SetInstr). The facade
// checkpoint writes the state section, the distributed Assign frame
// the bare slab; neither carries its own copy of the layout.
//
// An agent is its fields in declaration order, nested structs
// flattened: an unsigned integer as a uvarint, a signed one as a
// zigzag varint, a bool as one byte 0 or 1. There is no
// self-description, so reordering, adding or removing a state's fields,
// or changing a field's signedness, changes the checkpoint format.
// Narrowing a field (int32 to int16, say) keeps the bytes of every
// value that still fits and only narrows what the decoder accepts.

// WriteSlab appends the agent slab: the agent count, then each agent's
// fields in agent order.
func (d *Descriptor[S, P]) WriteSlab(states []S, w *ckpt.Writer) {
	l := LayoutOf[S]()
	w.Uvarint(uint64(len(states)))
	w.Append(func(b []byte) []byte { return appendAgents(l, b, states) })
}

// ReadSlab decodes a slab written by WriteSlab, which must hold exactly
// n agents. Every field encodes to at least one byte, so n agents need
// n × (field count) bytes, and a shorter input is rejected before the
// slab is allocated. A field value that does not fit its field, an overlong
// varint and a bool byte other than 0 or 1 are rejected too, so that
// decoding round-trips exactly.
func (d *Descriptor[S, P]) ReadSlab(n int, r *ckpt.Reader) ([]S, error) {
	l := LayoutOf[S]()
	cnt := r.Uvarint()
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("%s: %w", d.Name, r.Err())
	case cnt != uint64(n):
		return nil, fmt.Errorf("%s: slab holds %d agents, protocol expects %d", d.Name, cnt, n)
	case n > r.Remaining()/len(l.fields):
		return nil, fmt.Errorf("%s: slab of %d agents of %d fields truncated to %d bytes", d.Name, n, len(l.fields), r.Remaining())
	}
	states := make([]S, n)
	used, err := readAgents(l, states, r.Rest())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	r.Next(used)
	return states, nil
}

// appendAgents appends the fields of every state to b.
func appendAgents[S any](l *Layout, b []byte, states []S) []byte {
	fields, most := l.fields, l.maxAgent
	for i := range states {
		if cap(b)-len(b) < most {
			b = slices.Grow(b, most+(len(states)-i)*len(fields))
		}
		out := b[len(b) : len(b)+most]
		k := 0
		p := unsafe.Pointer(&states[i])
		for j := range fields {
			f := &fields[j]
			q := unsafe.Add(p, f.off)
			var u uint64
			switch f.kind {
			case u8:
				u = uint64(*(*uint8)(q))
			case u16:
				u = uint64(*(*uint16)(q))
			case u32:
				u = uint64(*(*uint32)(q))
			case u64:
				u = *(*uint64)(q)
			case i8:
				u = zigzag(int64(*(*int8)(q)))
			case i16:
				u = zigzag(int64(*(*int16)(q)))
			case i32:
				u = zigzag(int64(*(*int32)(q)))
			default:
				u = zigzag(*(*int64)(q))
			}
			for u >= 0x80 {
				out[k] = byte(u) | 0x80
				u >>= 7
				k++
			}
			out[k] = byte(u)
			k++
		}
		b = b[:len(b)+k]
	}
	return b
}

// readAgents decodes len(states) agents from the head of data into
// states and returns the bytes they took.
func readAgents[S any](l *Layout, states []S, data []byte) (int, error) {
	fields, k := l.fields, 0
	for i := range states {
		p := unsafe.Pointer(&states[i])
		for j := range fields {
			f := &fields[j]
			if k >= len(data) {
				return k, fmt.Errorf("agent %d: slab truncated", i)
			}
			u := uint64(data[k])
			if u < 0x80 {
				k++
			} else {
				var m int
				u, m = binary.Uvarint(data[k:])
				if m <= 0 || data[k+m-1] == 0 {
					return k, fmt.Errorf("agent %d: truncated, overlong or overflowing varint", i)
				}
				k += m
			}
			if u > f.max {
				var v any = u
				if f.kind >= i8 {
					v = unzigzag(u)
				}
				return k, fmt.Errorf("agent %d: field value %d does not fit the field at offset %d", i, v, f.off)
			}
			q := unsafe.Add(p, f.off)
			switch f.kind {
			case u8:
				*(*uint8)(q) = uint8(u)
			case u16:
				*(*uint16)(q) = uint16(u)
			case u32:
				*(*uint32)(q) = uint32(u)
			case u64:
				*(*uint64)(q) = u
			case i8:
				*(*int8)(q) = int8(unzigzag(u))
			case i16:
				*(*int16)(q) = int16(unzigzag(u))
			case i32:
				*(*int32)(q) = int32(unzigzag(u))
			default:
				*(*int64)(q) = unzigzag(u)
			}
		}
	}
	return k, nil
}

// zigzag maps signed to unsigned integers so that small magnitudes
// encode short (binary.AppendVarint's mapping).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WriteState appends the checkpoint state section: the slab, then the
// elements of the Instr vector as bare varints (the protocol fixes
// their count, so none is written).
func (d *Descriptor[S, P]) WriteState(p P, states []S, w *ckpt.Writer) {
	d.WriteSlab(states, w)
	if d.Instr != nil {
		for _, v := range d.Instr(p) {
			w.Varint(v)
		}
	}
}

// ReadState decodes a state section written by WriteState for n
// agents, restoring the instrumentation vector into p.
func (d *Descriptor[S, P]) ReadState(p P, n int, r *ckpt.Reader) ([]S, error) {
	states, err := d.ReadSlab(n, r)
	if err != nil || d.Instr == nil {
		return states, err
	}
	v := make([]int64, len(d.Instr(p)))
	for i := range v {
		v[i] = r.Varint()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%s: instrumentation: %w", d.Name, err)
	}
	d.SetInstr(p, v)
	return states, nil
}
