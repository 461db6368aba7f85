package cai

import "ssrank/internal/ckpt"

// EncodeAgent appends one agent's label — the per-agent unit of the
// proto slab codec and the distributed wire layer
// (proto.Descriptor.EncodeAgent). The protocol is immutable, so the
// slab is the whole mutable run state.
func EncodeAgent(p *Protocol, s *State, w *ckpt.Writer) {
	w.Varint(int64(*s))
}

// DecodeAgent decodes one agent written by EncodeAgent; errors stick
// in r.
func DecodeAgent(p *Protocol, r *ckpt.Reader) State {
	return ckpt.Int[State](r)
}
