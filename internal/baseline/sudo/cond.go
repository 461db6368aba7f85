package sudo

// LeaderCond tracks the number of leaders incrementally — the
// UniqueLeader stop condition in the engine's Condition form, so the
// loose-stabilization sweeps can measure the exact first interaction
// at which a unique leader exists instead of rounding to a poll
// cadence. Uniqueness is transient for this protocol (that is its
// point), which is precisely why exact hitting times need a tracker:
// a polled scan can sail straight through a short uniqueness window.
//
// The type satisfies the engine's Condition[State] interface
// structurally (this package does not import the engine). The zero
// value is usable; Init resets it for reuse across runs.
type LeaderCond struct {
	leader  []bool
	leaders int
}

// LeaderCondBytes is what a LeaderCond holds once Init has seen n
// agents: one cached leader bit per agent, a byte each.
func LeaderCondBytes(n int) int64 { return int64(n) }

// NewLeaderCond returns an empty tracker.
func NewLeaderCond() *LeaderCond { return &LeaderCond{} }

// Init (re)builds the tracker from the full configuration.
func (c *LeaderCond) Init(states []State) {
	if cap(c.leader) < len(states) {
		c.leader = make([]bool, len(states))
	}
	c.leader = c.leader[:len(states)]
	c.leaders = 0
	for i := range states {
		c.leader[i] = states[i].Leader
		if states[i].Leader {
			c.leaders++
		}
	}
}

// Update refreshes agent i's cached leader bit.
func (c *LeaderCond) Update(i int, states []State) {
	if l := states[i].Leader; l != c.leader[i] {
		c.leader[i] = l
		if l {
			c.leaders++
		} else {
			c.leaders--
		}
	}
}

// Done reports whether exactly one leader exists.
func (c *LeaderCond) Done() bool { return c.leaders == 1 }
