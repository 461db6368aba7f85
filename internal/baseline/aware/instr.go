package aware

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
