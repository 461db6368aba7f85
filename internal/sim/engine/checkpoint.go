package engine

import (
	"errors"
	"fmt"

	"ssrank/internal/ckpt"
	"ssrank/internal/proto"
	"ssrank/internal/sim"
	"ssrank/internal/sim/shard"
)

// Checkpoint engine kinds, the first field of the engine section. They
// version the stream layout that follows.
const (
	KindSerial = 0
	// KindShardV1 is the retired pre-alias sharded layout (no class
	// streams). Its scheduler no longer exists, so Resume rejects it
	// instead of silently diverging.
	KindShardV1 = 1
	// KindShard is the alias-classification sharded layout.
	KindShard = 2
)

// streamState is a stream section Resume read and validated.
type streamState struct {
	serial sim.EngineState
	shard  shard.EngineState
}

// Checkpoint writes the engine section of a checkpoint: the kind, the
// recorded exact hit (-1 for none), the step counter, the kind's stream
// section and the protocol state (proto.Descriptor.WriteState). On the
// message network it writes nothing and returns an error: mailboxes in
// flight and fault stream positions are not serializable state.
func (e *Engine[S, P]) Checkpoint(w *ckpt.Writer, hit int64) error {
	kind, write, err := e.streams()
	if err != nil {
		return err
	}
	w.Uvarint(kind)
	w.Varint(hit)
	w.Varint(e.Steps())
	write(w)
	e.d.WriteState(e.p, e.States(), w)
	return nil
}

// Resume rebuilds the engine an engine section of n agents was written
// from, validating the section against the engine k selects, and
// returns it with the recorded hit. The stream positions it restores
// replace the freshly seeded ones, so the engine is indistinguishable
// from the captured one.
func Resume[S any, P sim.TouchReporter[S]](d proto.Descriptor[S, P], n int, k Knobs, r *ckpt.Reader) (*Engine[S, P], int64, error) {
	kind := r.Uvarint()
	hit := r.Varint()
	steps := r.Varint()
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("malformed checkpoint engine section: %w", err)
	}
	shards := ResolveShards(k.Shards, n)
	var st streamState
	switch kind {
	case KindSerial:
		if shards != 1 {
			return nil, 0, fmt.Errorf("serial checkpoint, config resolves to %d shards", shards)
		}
		st.serial = sim.EngineState{Steps: steps, Pairs: ckpt.ReadPairState(r)}
	case KindShardV1:
		return nil, 0, errors.New("checkpoint uses the retired v1 sharded engine layout (pre-alias-classification); its trajectory cannot be resumed by this build — re-run the simulation or resume with a build that predates the alias-table scheduler")
	case KindShard:
		if shards < 2 {
			return nil, 0, fmt.Errorf("sharded checkpoint, config resolves to %d shard(s)", shards)
		}
		st.shard = shard.EngineState{Steps: steps}
		// restore checks the stream counts against the engine.
		st.shard.Master, st.shard.Shards, st.shard.Classes = ckpt.ReadShardStreams(r, n, n)
	default:
		return nil, 0, fmt.Errorf("unknown checkpoint engine kind %d", kind)
	}
	p := d.New(n)
	states, err := d.ReadState(p, n, r)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint state: %w", err)
	}
	e, err := start(d, p, states, k)
	if err == nil {
		err = e.restore(st)
	}
	return e, hit, err
}

func (e serial[S, P]) streams() (uint64, func(*ckpt.Writer), error) {
	st := e.EngineState()
	return KindSerial, func(w *ckpt.Writer) { ckpt.WritePairState(w, st.Pairs) }, nil
}

func (e serial[S, P]) restore(st streamState) error {
	if err := e.SetEngineState(st.serial); err != nil {
		return fmt.Errorf("checkpoint pair stream: %w", err)
	}
	return nil
}

func (e sharded[S, P]) streams() (uint64, func(*ckpt.Writer), error) {
	st := e.EngineState()
	return KindShard, func(w *ckpt.Writer) { ckpt.WriteShardStreams(w, st.Master, st.Shards, st.Classes) }, nil
}

func (e sharded[S, P]) restore(st streamState) error {
	if err := e.SetEngineState(st.shard); err != nil {
		return fmt.Errorf("checkpoint pair streams: %w", err)
	}
	return nil
}

var errNotCheckpointable = errors.New("message-network simulations are not checkpointable")

func (network[S, P]) streams() (uint64, func(*ckpt.Writer), error) {
	return 0, nil, errNotCheckpointable
}

func (network[S, P]) restore(streamState) error { return errNotCheckpointable }
