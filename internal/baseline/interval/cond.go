package interval

// DisjointCond tracks pairwise disjointness of the owned intervals
// incrementally — the stop condition of the relaxed-range protocol
// (Valid) in the engine's Condition form, so experiment sweeps can
// stop exactly at the first silent configuration instead of polling
// the O(n log n) scan.
//
// Every legal interval is a node of the perfect binary tree over
// [1, m] (m a power of two), so two intervals overlap exactly when one
// is an ancestor-or-equal of the other. The tracker stores, per tree
// node in heap order, the number of agents owning exactly that node
// (cnt) and the number owning a strict descendant (desc), and
// maintains the total number of overlapping unordered agent pairs:
// inserting an interval at node x adds cnt over x's strict ancestors
// (they contain x), plus cnt[x] (equal), plus desc[x] (contained in
// x). The configuration is disjoint exactly when that running count is
// zero. An update walks one root path — O(log m) — and updates only
// run on interactions that actually moved an interval, which the
// protocol's TransitionT reports.
//
// The type satisfies the engine's Condition[State] interface
// structurally (this package does not import the engine, preserving
// the protocols-depend-only-on-rng layering). The zero value is not
// usable; construct with NewDisjointCond. A DisjointCond may be reused
// across runs — Init resets it.
type DisjointCond struct {
	m         int32   // identifier-space size (power of two)
	nodes     []int32 // cached tree node per agent; 0 = malformed interval
	cnt       []int32 // agents owning exactly this node
	desc      []int32 // agents owning a strict descendant of this node
	overlaps  int64   // overlapping unordered agent pairs
	malformed int     // agents whose interval is not a tree node
}

// DisjointCondBytes is what a DisjointCond over [1, m] holds once Init
// has seen n agents: two int32 counters per node of a 2m-node tree and
// one cached node per agent.
func DisjointCondBytes(m int32, n int) int64 { return 16*int64(m) + 4*int64(n) }

// NewDisjointCond returns a tracker for the identifier space [1, m];
// m must match the protocol's effective space (Protocol.M).
func NewDisjointCond(m int32) *DisjointCond {
	if m < 1 || m&(m-1) != 0 {
		panic("interval: DisjointCond needs a power-of-two identifier space")
	}
	return &DisjointCond{m: m, cnt: make([]int32, 2*int(m)), desc: make([]int32, 2*int(m))}
}

// nodeOf maps an interval to its tree node in heap order (root 1,
// leaves m..2m−1), or 0 when the interval is not an aligned
// power-of-two block of [1, m].
func (c *DisjointCond) nodeOf(s *State) int32 {
	length := s.Hi - s.Lo + 1
	if s.Lo < 1 || s.Hi > c.m || length < 1 ||
		length&(length-1) != 0 || (s.Lo-1)%length != 0 {
		return 0
	}
	return c.m/length + (s.Lo-1)/length
}

// Init (re)builds the tracker from the full configuration.
func (c *DisjointCond) Init(states []State) {
	if cap(c.nodes) < len(states) {
		c.nodes = make([]int32, len(states))
	}
	c.nodes = c.nodes[:len(states)]
	for i := range c.cnt {
		c.cnt[i], c.desc[i] = 0, 0
	}
	c.overlaps, c.malformed = 0, 0
	for i := range states {
		x := c.nodeOf(&states[i])
		c.nodes[i] = x
		c.add(x)
	}
}

func (c *DisjointCond) add(x int32) {
	if x == 0 {
		c.malformed++
		return
	}
	o := int64(c.cnt[x]) + int64(c.desc[x])
	for a := x >> 1; a >= 1; a >>= 1 {
		o += int64(c.cnt[a])
	}
	c.overlaps += o
	c.cnt[x]++
	for a := x >> 1; a >= 1; a >>= 1 {
		c.desc[a]++
	}
}

func (c *DisjointCond) remove(x int32) {
	if x == 0 {
		c.malformed--
		return
	}
	c.cnt[x]--
	for a := x >> 1; a >= 1; a >>= 1 {
		c.desc[a]--
	}
	o := int64(c.cnt[x]) + int64(c.desc[x])
	for a := x >> 1; a >= 1; a >>= 1 {
		o += int64(c.cnt[a])
	}
	c.overlaps -= o
}

// Update refreshes agent i's cached interval.
func (c *DisjointCond) Update(i int, states []State) {
	x := c.nodeOf(&states[i])
	if x != c.nodes[i] {
		c.remove(c.nodes[i])
		c.add(x)
		c.nodes[i] = x
	}
}

// Done reports whether all intervals are pairwise disjoint (every
// malformed interval counts as overlapping).
func (c *DisjointCond) Done() bool {
	return c.overlaps == 0 && c.malformed == 0
}
