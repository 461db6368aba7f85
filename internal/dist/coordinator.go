package dist

import (
	"errors"
	"fmt"
	"net"
	"time"

	"ssrank/internal/ckpt"
	"ssrank/internal/proto"
	"ssrank/internal/rng"
	"ssrank/internal/sim"
	"ssrank/internal/sim/shard"
)

// session is one live worker: its connection with the frame buffers
// reused across frames, its contiguous shard group, and per-batch
// bookkeeping for the quiescence drain.
type session struct {
	conn     net.Conn
	in       frameReader
	out      frameWriter
	glo, ghi int
	owned    []int   // cross units owned by the group, ascending id
	instr    []int64 // last barrier-reported instrumentation vector

	// section is the worker's delta section of the current phase: raw
	// bytes in its read buffer, validated and forwarded to the others.
	section []byte

	// Per-batch wire bookkeeping: which frames of the current batch the
	// worker has provably received (countsOK, forwarded) and how many it
	// has sent that we consumed. Together these bound the worker's
	// in-flight frames exactly, which is what lets an abandoned batch
	// drain to quiescence before the recovery Assign (drain).
	countsOK  bool
	forwarded int
	consumed  int
}

// Coordinator owns one distributed run: the only master-stream
// classifier, the committed engine state the run can always roll back
// to, and a full population mirror that never executes units — it is
// advanced at batch commits from the workers' phase deltas, and is what
// Assign frames and the final Result read. Coordinator implements
// shard.BarrierExchange, so the exact-stopping driver shared with the
// in-process engine (shard.RunExactBatches) runs unchanged on top of
// the wire.
type Coordinator[S any, P sim.TouchReporter[S]] struct {
	d        proto.Descriptor[S, P]
	lay      *proto.Layout
	p        P
	id       RunID
	r        *shard.Runner[S, P]
	batch    int
	timeout  time.Duration
	onBatch  func(int64)
	sessions []*session

	committed shard.EngineState
	total     []int64 // committed whole-run instrumentation vector
	seq       uint64

	// Per-batch buffers. recs is indexed by unit id (intra shard s → s,
	// cross unit c → Shards+c); pending holds the entries of the batch's
	// validated delta sections, applied to the mirror only at commit so
	// an abandoned batch leaves the mirror on the committed barrier;
	// reportShards/reportClasses stage the barrier-reported stream
	// positions the same way.
	recs          [][]shard.TouchRec[S]
	pending       []byte
	reportShards  []rng.PairBatchState
	reportClasses [][4]uint64
}

// NewCoordinator builds the coordinator for one run, adopts up to
// min(len(conns), id.Shards) workers (consuming their pending Hello
// frames; connections beyond that are left untouched for other runs),
// and sends the initial assignments. The caller supplies the protocol
// instance and the initial configuration — exactly what the in-process
// engine would have been built from — and keeps ownership of any
// connection the coordinator rejects at handshake (those are closed).
func NewCoordinator[S any, P sim.TouchReporter[S]](d proto.Descriptor[S, P], p P, states []S, id RunID, conns []net.Conn, opts Options) (*Coordinator[S, P], error) {
	c, err := newCoordinator(d, p, states, id, opts)
	if err != nil {
		return nil, err
	}
	want := min(id.Shards, len(conns))
	for _, conn := range conns {
		if len(c.sessions) == want {
			break
		}
		s := &session{conn: conn}
		if err := handshake(conn, &s.in, c.timeout); err != nil {
			conn.Close()
			continue
		}
		c.sessions = append(c.sessions, s)
	}
	if len(c.sessions) == 0 {
		return nil, errors.New("dist: no worker completed the handshake")
	}
	if err := c.assignAll(); err != nil {
		return nil, err
	}
	return c, nil
}

// newCoordinator builds the run's engine and per-batch buffers, with
// no workers yet.
func newCoordinator[S any, P sim.TouchReporter[S]](d proto.Descriptor[S, P], p P, states []S, id RunID, opts Options) (*Coordinator[S, P], error) {
	if id.Shards < 2 {
		return nil, fmt.Errorf("dist: distributed runs need at least 2 shards, got %d", id.Shards)
	}
	if id.N != len(states) {
		return nil, fmt.Errorf("dist: run declares n=%d but has %d initial states", id.N, len(states))
	}
	eng := shard.New[S](p, states, id.Seed, id.Shards, 1)
	if eng.Shards() != id.Shards {
		return nil, fmt.Errorf("dist: %d shards not realizable for n=%d", id.Shards, id.N)
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	c := &Coordinator[S, P]{
		d: d, lay: proto.LayoutOf[S](), p: p, id: id, r: eng,
		batch:   shard.BatchPeriod(id.N),
		timeout: timeout,
		onBatch: opts.OnBatch,
	}
	c.committed = eng.EngineState()
	if d.Instr != nil {
		c.total = append([]int64(nil), d.Instr(p)...)
	}
	c.recs = make([][]shard.TouchRec[S], id.Shards+eng.NumCrossUnits())
	c.reportShards = make([]rng.PairBatchState, id.Shards)
	c.reportClasses = make([][4]uint64, eng.NumCrossUnits())
	return c, nil
}

// Workers reports the number of live worker sessions.
func (c *Coordinator[S, P]) Workers() int { return len(c.sessions) }

// Steps reports the committed interaction count.
func (c *Coordinator[S, P]) Steps() int64 { return c.committed.Steps }

// States returns the mirror's agent slab at the committed barrier.
func (c *Coordinator[S, P]) States() []S { return c.r.States() }

// InstrTotal returns the committed whole-run instrumentation vector
// (the element-wise sum of every worker's counters).
func (c *Coordinator[S, P]) InstrTotal() []int64 {
	return append([]int64(nil), c.total...)
}

// Stop releases the workers back to idle: each gets a Stop frame and
// re-greets on the same connection, leaving it ready for the next
// run's handshake. Best-effort; connections that refuse the frame are
// closed.
func (c *Coordinator[S, P]) Stop() {
	for _, s := range c.sessions {
		s.out.begin(frameStop)
		if err := s.out.send(s.conn, c.timeout); err != nil {
			s.conn.Close()
		}
	}
	c.sessions = nil
}

// RunUntilExact drives the run to the exact hitting time of cond via
// the shared barrier driver, mirroring shard.Runner.RunUntilExact: it
// returns the hitting step on convergence, or the committed step count
// with sim.ErrBudgetExhausted when maxSteps ran out first. Any other
// error is infrastructural — every worker died.
func (c *Coordinator[S, P]) RunUntilExact(cond sim.Condition[S], maxSteps int64) (int64, error) {
	cond.Init(c.r.States())
	if cond.Done() {
		return c.committed.Steps, nil
	}
	f := shard.NewFolder[S](len(c.r.States()))
	f.Reset(c.r.States())
	_, hit, err := shard.RunExactBatches[S](c, f, cond, c.committed.Steps, maxSteps, c.batch)
	if err != nil {
		return c.committed.Steps, err
	}
	if hit < 0 {
		return c.committed.Steps, sim.ErrBudgetExhausted
	}
	return hit, nil
}

// ExecBatch runs one batch across the workers (shard.BarrierExchange).
// On a worker failure the batch is abandoned: survivors are drained to
// wire quiescence, the mirror rolls back to the committed barrier, the
// dead worker's shard group migrates to the survivors via fresh Assign
// frames, and the batch replays — the restored master stream
// re-classifies identical counts, so the retry is byte-identical and
// the failure is invisible in the trajectory.
func (c *Coordinator[S, P]) ExecBatch(b int, track bool, emit func(recs []shard.TouchRec[S])) error {
	var lastErr error
	for {
		if len(c.sessions) == 0 {
			if lastErr != nil {
				return fmt.Errorf("%w (last failure: %v)", errNoWorkers, lastErr)
			}
			return errNoWorkers
		}
		err := c.tryBatch(b, track)
		if err == nil {
			break
		}
		lastErr = err
		c.drain()
		if rerr := c.r.SetEngineState(c.committed); rerr != nil {
			return rerr
		}
		if len(c.sessions) == 0 {
			continue
		}
		if aerr := c.assignAll(); aerr != nil {
			return fmt.Errorf("%w (last failure: %v)", aerr, lastErr)
		}
	}
	for s := 0; s < c.id.Shards; s++ {
		emit(c.recs[s])
		c.recs[s] = c.recs[s][:0]
	}
	for _, round := range c.r.RoundSchedule() {
		for _, cid := range round {
			emit(c.recs[c.id.Shards+cid])
			c.recs[c.id.Shards+cid] = c.recs[c.id.Shards+cid][:0]
		}
	}
	return nil
}

// assignAll partitions the shards contiguously over the live sessions
// and sends each its Assign sub-blob, retrying with fewer sessions if
// a write fails. The committed instrumentation total rides with the
// first session as its baseline (the others start at zero): counters
// conserve under migration without attributing interactions to
// workers. Assign is the one frame that carries the whole slab, so it
// is encoded into a buffer of its own rather than the session's.
func (c *Coordinator[S, P]) assignAll() error {
	for {
		n := len(c.sessions)
		if n == 0 {
			return errNoWorkers
		}
		ok := true
		states := c.r.States()
		for w, s := range c.sessions {
			s.glo = w * c.id.Shards / n
			s.ghi = (w + 1) * c.id.Shards / n
			s.owned = crossOwned(c.r, s.glo, s.ghi)
			base := make([]int64, len(c.total))
			if w == 0 {
				copy(base, c.total)
			}
			s.instr = base
			var f frameWriter
			buf := f.begin(frameAssign)
			appendAssignHeader(buf, AssignHeader{
				RunID: c.id, GroupLo: s.glo, GroupHi: s.ghi, Steps: c.committed.Steps,
				Layout: c.lay.Fingerprint,
			})
			appendInstr(buf, base)
			ckpt.WriteShardStreams(buf, c.committed.Master, c.committed.Shards, c.committed.Classes)
			c.d.WriteSlab(states, buf)
			if err := f.send(s.conn, c.timeout); err != nil {
				c.drop(s)
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
	}
}

// tryBatch runs one batch attempt over the current sessions. Any
// error already dropped the offending session; the caller rolls back
// and retries.
func (c *Coordinator[S, P]) tryBatch(b int, track bool) error {
	for _, s := range c.sessions {
		s.countsOK, s.forwarded, s.consumed = false, 0, 0
	}
	counts := c.r.ClassifyBatch(b)
	c.seq++
	for _, s := range c.sessions {
		w := s.out.begin(frameCounts)
		w.Uvarint(c.seq)
		w.Uvarint(uint64(b))
		w.Bool(track)
		w.Uvarint(uint64(len(counts)))
		for _, v := range counts {
			w.Varint(int64(v))
		}
		if err := s.out.send(s.conn, c.timeout); err != nil {
			c.drop(s)
			return fmt.Errorf("dist: counts broadcast: %w", err)
		}
		s.countsOK = true
	}

	phases := 1 + len(c.r.RoundSchedule())
	c.pending = c.pending[:0]
	for k := 0; k < phases; k++ {
		for _, s := range c.sessions {
			payload, err := c.gather(s, frameDeltas)
			if err != nil {
				c.drop(s)
				return fmt.Errorf("dist: phase %d gather: %w", k, err)
			}
			if err := c.decodeDeltas(s, k, payload); err != nil {
				c.drop(s)
				return err
			}
			s.consumed++
		}
		// Phase units touch disjoint agents, so each worker needs only
		// the other workers' sections, in any fixed order.
		for _, s := range c.sessions {
			w := s.out.begin(frameDeltas)
			w.Uvarint(c.seq)
			w.Uvarint(uint64(k))
			for _, t := range c.sessions {
				if t != s {
					w.Raw(t.section)
				}
			}
			if err := s.out.send(s.conn, c.timeout); err != nil {
				c.drop(s)
				return fmt.Errorf("dist: phase %d forward: %w", k, err)
			}
			s.forwarded++
		}
	}

	for _, s := range c.sessions {
		payload, err := c.gather(s, frameBarrier)
		if err != nil {
			c.drop(s)
			return fmt.Errorf("dist: barrier gather: %w", err)
		}
		if err := c.decodeBarrier(s, payload, b); err != nil {
			c.drop(s)
			return err
		}
		s.consumed++
	}
	c.commit(b)
	return nil
}

// decodeDeltas validates s's delta report for phase k (the payload
// after the sequence number) and appends its entries to pending. Only a
// section that validates completely is kept in s.section for
// forwarding, so a malformed worker is dropped before any of its bytes
// reach a peer.
func (c *Coordinator[S, P]) decodeDeltas(s *session, k int, payload []byte) error {
	r := ckpt.NewReader(payload)
	if ph := r.Uvarint(); r.Err() != nil || ph != uint64(k) {
		return fmt.Errorf("dist: worker reported phase %d, want %d", ph, k)
	}
	section := payload[len(payload)-r.Remaining():]
	entries, err := readDeltaSection(c.lay, len(c.r.States()), r)
	if err == nil {
		err = r.Close()
	}
	if err != nil {
		return err
	}
	c.pending = append(c.pending, entries...)
	s.section = section
	return nil
}

// gather reads the next worker→coordinator frame of the current batch
// from s, skipping bounded stale frames (re-greetings; frames of an
// abandoned batch that slipped past the drain) and returning the
// payload after the sequence number. The payload lives in s's read
// buffer until s's next read.
func (c *Coordinator[S, P]) gather(s *session, wantType byte) ([]byte, error) {
	for skips := 0; skips < 64; skips++ {
		typ, payload, err := s.in.read(s.conn, c.timeout)
		if err != nil {
			return nil, err
		}
		switch typ {
		case frameHello:
			continue
		case frameDeltas, frameBarrier:
			r := ckpt.NewReader(payload)
			seq := r.Uvarint()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if seq != c.seq {
				continue // abandoned-batch leftover
			}
			if typ != wantType {
				return nil, fmt.Errorf("dist: frame type %d, want %d", typ, wantType)
			}
			return payload[len(payload)-r.Remaining():], nil
		default:
			return nil, fmt.Errorf("dist: unexpected frame type %d", typ)
		}
	}
	return nil, errors.New("dist: too many stale frames")
}

// decodeBarrier installs one worker's barrier frame: touch records per
// owned unit (into the canonical per-unit buffers), owned stream
// positions (staged for commit), and the instrumentation vector.
func (c *Coordinator[S, P]) decodeBarrier(s *session, payload []byte, b int) error {
	r := ckpt.NewReader(payload)
	n := len(c.r.States())
	var err error
	for sh := s.glo; sh < s.ghi; sh++ {
		if c.recs[sh], err = readRecSection(c.lay, b, n, r, c.recs[sh][:0]); err != nil {
			return err
		}
	}
	for _, cid := range s.owned {
		u := c.id.Shards + cid
		if c.recs[u], err = readRecSection(c.lay, b, n, r, c.recs[u][:0]); err != nil {
			return err
		}
	}
	for sh := s.glo; sh < s.ghi; sh++ {
		c.reportShards[sh] = ckpt.ReadPairState(r)
	}
	for _, cid := range s.owned {
		c.reportClasses[cid] = ckpt.ReadRNGState(r)
	}
	s.instr = readInstr(r, s.instr)
	if err := r.Close(); err != nil {
		return fmt.Errorf("dist: malformed barrier frame: %w", err)
	}
	return nil
}

// commit makes the batch durable: the phase deltas land on the
// mirror, the committed state takes the advanced master stream, the
// barrier-reported shard and class streams, and the batch's steps, and
// the instrumentation total is re-summed from the workers' reports.
func (c *Coordinator[S, P]) commit(b int) {
	applyDeltas(c.lay, c.r.States(), c.pending)
	c.pending = c.pending[:0]
	c.committed.Master = c.r.EngineState().Master
	copy(c.committed.Shards, c.reportShards)
	copy(c.committed.Classes, c.reportClasses)
	c.committed.Steps += int64(b)
	if c.d.Instr != nil {
		c.total = c.total[:0]
		for _, s := range c.sessions {
			c.total = addInstr(c.total, s.instr)
		}
	}
	if c.onBatch != nil {
		c.onBatch(c.committed.Steps)
	}
}

// drain brings every surviving session to wire quiescence after an
// abandoned batch. The lockstep protocol bounds each worker's
// in-flight frames exactly: it sends nothing before Counts reaches it,
// then one frame per forwarded deltas frame it has received (plus the
// initial phase), so expected − consumed frames remain to read. Once
// drained, every survivor is blocked reading — the recovery Assign
// cannot deadlock against an in-flight worker write, and no stale
// frame survives into the retried batch.
func (c *Coordinator[S, P]) drain() {
	phases := 1 + len(c.r.RoundSchedule())
	for _, s := range append([]*session(nil), c.sessions...) {
		expected := 0
		if s.countsOK {
			expected = s.forwarded + 1
			if expected > phases+1 {
				expected = phases + 1
			}
		}
		for s.consumed < expected {
			typ, _, err := s.in.read(s.conn, c.timeout)
			if err != nil {
				c.drop(s)
				break
			}
			switch typ {
			case frameDeltas, frameBarrier:
				s.consumed++
			case frameHello:
			default:
				c.drop(s)
			}
			if !c.live(s) {
				break
			}
		}
	}
}

// live reports whether s is still in the session table.
func (c *Coordinator[S, P]) live(s *session) bool {
	for _, t := range c.sessions {
		if t == s {
			return true
		}
	}
	return false
}

// drop closes a session's connection and removes it from the table.
// Closing is what lets a connection pool on the other side of the
// facade notice the death and stop handing the connection out.
func (c *Coordinator[S, P]) drop(s *session) {
	s.conn.Close()
	for i, t := range c.sessions {
		if t == s {
			c.sessions = append(c.sessions[:i], c.sessions[i+1:]...)
			return
		}
	}
}
