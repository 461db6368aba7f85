package stable

import "ssrank/internal/ckpt"

// EncodeAgent appends one agent's state field-by-field — the per-agent
// unit the proto slab codec and the distributed wire layer are built
// from (proto.Descriptor.EncodeAgent).
func EncodeAgent(p *Protocol, s *State, w *ckpt.Writer) {
	w.Uvarint(uint64(s.Mode))
	w.Uvarint(uint64(s.Coin))
	w.Varint(int64(s.Rank))
	w.Varint(int64(s.ResetCount))
	w.Varint(int64(s.DelayCount))
	w.Varint(int64(s.LECount))
	w.Varint(int64(s.CoinCount))
	w.Bool(s.LeaderDone)
	w.Bool(s.IsLeader)
	w.Varint(int64(s.Wait))
	w.Varint(int64(s.Phase))
	w.Varint(int64(s.Alive))
}

// DecodeAgent decodes one agent written by EncodeAgent; errors stick
// in r.
func DecodeAgent(p *Protocol, r *ckpt.Reader) State {
	var s State
	s.Mode = ckpt.Uint[Mode](r)
	s.Coin = ckpt.Uint[uint8](r)
	s.Rank = ckpt.Int[int32](r)
	s.ResetCount = ckpt.Int[int32](r)
	s.DelayCount = ckpt.Int[int32](r)
	s.LECount = ckpt.Int[int32](r)
	s.CoinCount = ckpt.Int[int32](r)
	s.LeaderDone = r.Bool()
	s.IsLeader = r.Bool()
	s.Wait = ckpt.Int[int32](r)
	s.Phase = ckpt.Int[int32](r)
	s.Alive = ckpt.Int[int32](r)
	return s
}

// Instr captures the reset instrumentation as a flat vector: total,
// then per reason in ResetReason order. Vectors accumulated over
// disjoint interaction sets sum element-wise, which is what lets the
// distributed runtime reconcile counters that incremented on whichever
// worker executed the interaction (proto.Descriptor.Instr).
func Instr(p *Protocol) []int64 {
	v := make([]int64, 1+int(numResetReasons))
	v[0] = p.resets.Load()
	for reason := ResetReason(0); reason < numResetReasons; reason++ {
		v[1+int(reason)] = p.resetsByReason[reason].Load()
	}
	return v
}

// SetInstr restores a vector captured by Instr; short vectors leave
// the remaining counters untouched.
func SetInstr(p *Protocol, v []int64) {
	if len(v) > 0 {
		p.resets.Store(v[0])
	}
	for reason := ResetReason(0); reason < numResetReasons; reason++ {
		if 1+int(reason) < len(v) {
			p.resetsByReason[reason].Store(v[1+int(reason)])
		}
	}
}
