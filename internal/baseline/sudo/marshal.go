package sudo

import "ssrank/internal/ckpt"

// EncodeAgent appends one agent's leader bit and timeout — the
// per-agent unit of the proto slab codec and the distributed wire
// layer (proto.Descriptor.EncodeAgent). The protocol is immutable, so
// the slab is the whole mutable run state.
func EncodeAgent(p *Protocol, s *State, w *ckpt.Writer) {
	w.Bool(s.Leader)
	w.Varint(int64(s.Timeout))
}

// DecodeAgent decodes one agent written by EncodeAgent; errors stick
// in r.
func DecodeAgent(p *Protocol, r *ckpt.Reader) State {
	var s State
	s.Leader = r.Bool()
	s.Timeout = ckpt.Int[int32](r)
	return s
}
