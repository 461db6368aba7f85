package proto

import (
	"fmt"

	"ssrank/internal/ckpt"
)

// The agent-slab codec: the one encoding of a run's mutable protocol
// state, derived from the descriptor's per-agent codec (EncodeAgent,
// DecodeAgent) and instrumentation vector (Instr, SetInstr). The facade
// checkpoint writes the state section, the distributed Assign frame
// the bare slab; neither carries its own copy of the layout.

// WriteSlab appends the agent slab: the agent count, then each agent's
// EncodeAgent bytes in agent order.
func (d *Descriptor[S, P]) WriteSlab(p P, states []S, w *ckpt.Writer) {
	w.Uvarint(uint64(len(states)))
	for i := range states {
		d.EncodeAgent(p, &states[i], w)
	}
}

// ReadSlab decodes a slab written by WriteSlab, which must hold exactly
// n agents. Every agent encodes to at least one byte, so a count beyond
// the undecoded input is rejected before the slab is allocated.
func (d *Descriptor[S, P]) ReadSlab(p P, n int, r *ckpt.Reader) ([]S, error) {
	cnt := r.Uvarint()
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("%s: %w", d.Name, r.Err())
	case cnt != uint64(n):
		return nil, fmt.Errorf("%s: slab holds %d agents, protocol expects %d", d.Name, cnt, n)
	case n > r.Remaining():
		return nil, fmt.Errorf("%s: slab of %d agents truncated to %d bytes", d.Name, n, r.Remaining())
	}
	states := make([]S, n)
	for i := range states {
		states[i] = d.DecodeAgent(p, r)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	return states, nil
}

// WriteState appends the checkpoint state section: the slab, then the
// elements of the Instr vector as bare varints (the protocol fixes
// their count, so none is written).
func (d *Descriptor[S, P]) WriteState(p P, states []S, w *ckpt.Writer) {
	d.WriteSlab(p, states, w)
	if d.Instr != nil {
		for _, v := range d.Instr(p) {
			w.Varint(v)
		}
	}
}

// ReadState decodes a state section written by WriteState for n
// agents, restoring the instrumentation vector into p.
func (d *Descriptor[S, P]) ReadState(p P, n int, r *ckpt.Reader) ([]S, error) {
	states, err := d.ReadSlab(p, n, r)
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
