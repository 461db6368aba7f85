package main

import "time"

// span is one interval of a traced run, recorded by the benchmark's own
// code around a call into one layer. Spans are kept in memory and
// written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"` // work items the span covers (interactions, batches, ...)
	// Busy is the time spent inside the layer. It equals End−Start for
	// a plain interval. Phases that alternate faster than a span is
	// worth recording (a pair window's refill, transitions and fold,
	// ~8 µs together) are kept as one span per run whose Busy sums the
	// phase's intervals.
	Busy int64 `json:"busy_ns"`
}

// whole, passed as busy, marks a span busy for its whole interval.
const whole = -1

// tracer collects the spans of one traced run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id, for children.
func (t *tracer) add(parent int, name string, start, end time.Time, count int64, busy time.Duration) int {
	if busy == whole {
		busy = end.Sub(start)
	}
	t.spans = append(t.spans, span{
		ID:     len(t.spans) + 1,
		Parent: parent,
		Name:   name,
		Start:  start.Sub(t.t0).Nanoseconds(),
		End:    end.Sub(t.t0).Nanoseconds(),
		Count:  count,
		Busy:   busy.Nanoseconds(),
	})
	return len(t.spans)
}

// open records a span whose end is not known yet and returns its id;
// close fills the end in. Children may be added in between.
func (t *tracer) open(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now, 0, 0)
}

func (t *tracer) close(id int, count int64) {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Busy = s.End - s.Start
	s.Count = count
}

// selfTimes sums, per span name, each span's busy time minus the busy
// time of its children: the time attributable to that layer alone.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Busy
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.Busy - children[s.ID]
	}
	return self
}
