package ckpt

import (
	"math"

	"ssrank/internal/rng"
)

// Stream-state sections shared by every layer that serializes engine
// position: the facade checkpoint format (engine section of an "sscp"
// blob), and the distributed runtime's wire frames, whose Assign
// payload is a per-shard-group sub-blob of exactly these sections. The
// layouts here were originally private to the facade; they are part of
// the sscp checkpoint encoding and of the wire transcript, so they must
// never change shape — a new layout means a new function and a version
// bump, not an edit.

// pairStateMin is the shortest WritePairState encoding: one-byte n,
// 4×u64, one-byte consumed, bool.
const pairStateMin = 1 + 32 + 1 + 1

// WritePairState appends a pair-stream position: n uvarint, 4×u64
// source state, consumed uvarint, filled bool.
func WritePairState(w *Writer, st rng.PairBatchState) {
	w.Uvarint(uint64(st.N))
	for _, word := range st.Src {
		w.U64(word)
	}
	w.Uvarint(uint64(st.Consumed))
	w.Bool(st.Filled)
}

// ReadPairState decodes a stream position written by WritePairState.
// Errors stick in r; rng.PairBatch.SetState validates the decoded
// values against the live sampler.
func ReadPairState(r *Reader) rng.PairBatchState {
	var st rng.PairBatchState
	st.N = r.Count(math.MaxInt32)
	for i := range st.Src {
		st.Src[i] = r.U64()
	}
	st.Consumed = r.Count(math.MaxInt32)
	st.Filled = r.Bool()
	return st
}

// WriteRNGState appends a bare xoshiro256** state — the full position
// of an unbuffered stream (the sharded master and cross-class
// streams).
func WriteRNGState(w *Writer, st [4]uint64) {
	for _, word := range st {
		w.U64(word)
	}
}

// ReadRNGState decodes a state written by WriteRNGState. Errors stick
// in r; rng.RNG.SetState rejects the invalid all-zero state.
func ReadRNGState(r *Reader) [4]uint64 {
	var st [4]uint64
	for i := range st {
		st[i] = r.U64()
	}
	return st
}

// WriteShardStreams appends the sharded engine's stream table: the
// master classification stream, then the per-shard pair streams and
// the per-class endpoint streams, each list prefixed by its length.
func WriteShardStreams(w *Writer, master [4]uint64, shards []rng.PairBatchState, classes [][4]uint64) {
	WriteRNGState(w, master)
	w.Uvarint(uint64(len(shards)))
	for i := range shards {
		WritePairState(w, shards[i])
	}
	w.Uvarint(uint64(len(classes)))
	for i := range classes {
		WriteRNGState(w, classes[i])
	}
}

// ReadShardStreams decodes a table written by WriteShardStreams,
// failing r on more than maxShards shard or maxClasses class streams,
// or on more streams than the remaining input can hold.
// Errors stick in r; the caller checks the counts it read against its
// engine, and shard.Runner.SetEngineState validates the positions.
func ReadShardStreams(r *Reader, maxShards, maxClasses int) (master [4]uint64, shards []rng.PairBatchState, classes [][4]uint64) {
	master = ReadRNGState(r)
	shards = make([]rng.PairBatchState, r.Elems(maxShards, pairStateMin))
	for i := range shards {
		shards[i] = ReadPairState(r)
	}
	classes = make([][4]uint64, r.Elems(maxClasses, 32))
	for i := range classes {
		classes[i] = ReadRNGState(r)
	}
	return master, shards, classes
}
