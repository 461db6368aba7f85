package core

import "ssrank/internal/ckpt"

// EncodeAgent appends one agent's state field-by-field, the
// leader-election sub-state inlined — the per-agent unit the proto
// slab codec and the distributed wire layer are built from
// (proto.Descriptor.EncodeAgent). The protocol itself is immutable, so
// the slab is the whole mutable run state.
func EncodeAgent(p *Protocol, s *State, w *ckpt.Writer) {
	w.Uvarint(uint64(s.Kind))
	w.Varint(int64(s.Rank))
	w.Varint(int64(s.Phase))
	w.Varint(int64(s.Wait))
	w.Uvarint(uint64(s.LE.Coin))
	w.Bool(s.LE.Contender)
	w.Bool(s.LE.InLottery)
	w.Varint(int64(s.LE.Level))
	w.Varint(int64(s.LE.SigBits))
	w.Varint(int64(s.LE.Sig))
	w.Varint(int64(s.LE.MaxLevel))
	w.Varint(int64(s.LE.MaxSig))
	w.Bool(s.LE.Done)
	w.Varint(int64(s.LE.DoneCtr))
}

// DecodeAgent decodes one agent written by EncodeAgent; errors stick
// in r.
func DecodeAgent(p *Protocol, r *ckpt.Reader) State {
	var s State
	s.Kind = ckpt.Uint[Kind](r)
	s.Rank = ckpt.Int[int32](r)
	s.Phase = ckpt.Int[int32](r)
	s.Wait = ckpt.Int[int32](r)
	s.LE.Coin = ckpt.Uint[uint8](r)
	s.LE.Contender = r.Bool()
	s.LE.InLottery = r.Bool()
	s.LE.Level = ckpt.Int[int16](r)
	s.LE.SigBits = ckpt.Int[int16](r)
	s.LE.Sig = ckpt.Int[int32](r)
	s.LE.MaxLevel = ckpt.Int[int16](r)
	s.LE.MaxSig = ckpt.Int[int32](r)
	s.LE.Done = r.Bool()
	s.LE.DoneCtr = ckpt.Int[int32](r)
	return s
}
