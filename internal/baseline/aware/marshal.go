package aware

import "ssrank/internal/ckpt"

// EncodeAgent appends one agent's state field-by-field — the per-agent
// unit the proto slab codec and the distributed wire layer are built
// from (proto.Descriptor.EncodeAgent).
func EncodeAgent(p *Protocol, s *State, w *ckpt.Writer) {
	w.Uvarint(uint64(s.Mode))
	w.Uvarint(uint64(s.Coin))
	w.Varint(int64(s.Rank))
	w.Varint(int64(s.Next))
	w.Varint(int64(s.Alive))
	w.Varint(int64(s.ResetCount))
	w.Varint(int64(s.DelayCount))
	w.Varint(int64(s.LECount))
	w.Varint(int64(s.CoinCount))
	w.Bool(s.LeaderDone)
	w.Bool(s.IsLeader)
}

// DecodeAgent decodes one agent written by EncodeAgent; errors stick
// in r.
func DecodeAgent(p *Protocol, r *ckpt.Reader) State {
	var s State
	s.Mode = ckpt.Uint[Mode](r)
	s.Coin = ckpt.Uint[uint8](r)
	s.Rank = ckpt.Int[int32](r)
	s.Next = ckpt.Int[int32](r)
	s.Alive = ckpt.Int[int32](r)
	s.ResetCount = ckpt.Int[int32](r)
	s.DelayCount = ckpt.Int[int32](r)
	s.LECount = ckpt.Int[int32](r)
	s.CoinCount = ckpt.Int[int32](r)
	s.LeaderDone = r.Bool()
	s.IsLeader = r.Bool()
	return s
}

// Instr captures the reset counter as a one-element vector; vectors
// over disjoint interaction sets sum element-wise
// (proto.Descriptor.Instr).
func Instr(p *Protocol) []int64 {
	return []int64{p.resets.Load()}
}

// SetInstr restores a vector captured by Instr.
func SetInstr(p *Protocol, v []int64) {
	if len(v) > 0 {
		p.resets.Store(v[0])
	}
}
