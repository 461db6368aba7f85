package stable

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
