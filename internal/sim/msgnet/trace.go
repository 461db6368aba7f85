package msgnet

import (
	"fmt"
	"math"

	"ssrank/internal/ckpt"
)

// Trace is the recorded message history of a run: per round, the
// scheduled contacts and the IDs delivered, in delivery order. That
// is every nondeterministic choice the network makes — message IDs
// are assigned deterministically from the contacts (requests at round
// start in contact order, replies by delivery slot), so drops (ID
// never delivered), duplicates (ID delivered twice), delays (ID
// delivered in a later round) and reorderings (queue position) are
// all implied by the delivery lists. Replaying a trace over the same
// protocol and initial configuration reproduces the recorded
// trajectory exactly.
type Trace struct {
	// N is the population size the trace was recorded over.
	N int
	// Rounds holds one entry per executed round.
	Rounds []TraceRound
}

// TraceRound records one round.
type TraceRound struct {
	// Contacts are the round's scheduled (initiator, responder) pairs,
	// in schedule order.
	Contacts [][2]int32
	// Deliveries are the message IDs delivered this round, in
	// delivery order.
	Deliveries []int64
}

const traceMagic = "ssmt1" // ssrank msgnet trace, format version 1

// MarshalBinary encodes the trace in a compact varint format. The
// encoding is canonical: equal traces encode to equal bytes, which is
// what the record/replay byte-identity tests compare.
func (t *Trace) MarshalBinary() ([]byte, error) {
	var w ckpt.Writer
	w.Raw([]byte(traceMagic))
	w.Uvarint(uint64(t.N))
	w.Uvarint(uint64(len(t.Rounds)))
	for _, rd := range t.Rounds {
		w.Uvarint(uint64(len(rd.Contacts)))
		for _, c := range rd.Contacts {
			w.Uvarint(uint64(c[0]))
			w.Uvarint(uint64(c[1]))
		}
		w.Uvarint(uint64(len(rd.Deliveries)))
		for _, id := range rd.Deliveries {
			w.Uvarint(uint64(id))
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a trace encoded by MarshalBinary. Every
// count is checked against the bytes left before anything is sized by
// it, and only MarshalBinary's canonical encoding is accepted, so a
// corrupt or hostile trace costs an error, not memory.
func (t *Trace) UnmarshalBinary(data []byte) error {
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return fmt.Errorf("msgnet: not a trace (missing %q header)", traceMagic)
	}
	r := ckpt.NewReader(data[len(traceMagic):])
	out := Trace{N: r.Count(math.MaxInt32)}
	// A round encodes to at least two bytes (its two list lengths), a
	// contact to at least two, a delivery to at least one.
	out.Rounds = make([]TraceRound, r.Elems(math.MaxInt, 2))
	for i := range out.Rounds {
		rd := &out.Rounds[i]
		rd.Contacts = make([][2]int32, r.Elems(math.MaxInt, 2))
		for j := range rd.Contacts {
			rd.Contacts[j] = [2]int32{int32(r.Count(math.MaxInt32)), int32(r.Count(math.MaxInt32))}
		}
		rd.Deliveries = make([]int64, r.Elems(math.MaxInt, 1))
		for j := range rd.Deliveries {
			rd.Deliveries[j] = int64(r.Count(math.MaxInt))
		}
		if r.Err() != nil {
			break
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("msgnet: malformed trace: %w", err)
	}
	*t = out
	return nil
}
