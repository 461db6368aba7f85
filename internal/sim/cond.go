package sim

// Condition is a stop condition the engine can maintain incrementally.
// Init is called once with the full configuration; after every
// interaction Update is invoked for each of the two touched agents;
// Done reports whether the condition currently holds. Update and Done
// must run in O(1) (amortized) so the exact stop loops (RunUntilCondT,
// and the sharded engine's barrier fold) can afford to evaluate the
// condition after every touching interaction instead of rescanning the
// population on a poll cadence. Update(i, states) must read no agent
// but states[i]: the sharded barrier fold presents agent i's state at
// the folded interaction in that slot and leaves the other slots
// holding later states (shard.Folder).
type Condition[S any] interface {
	Init(states []S)
	Update(i int, states []S)
	Done() bool
}

// RankCond is the incremental form of the repository's permutation
// validity checks: given a per-agent rank extractor (0 = unranked), it
// tracks whether every agent holds a rank and all held ranks are
// distinct — for rank space [1, n] that is exactly "the ranks form a
// permutation of 1..n" (stable.Valid, core.Valid, cai.Valid,
// aware.Valid). A larger rank space m > n expresses the relaxed-range
// variant: every agent decided, all ranks distinct in [1, m].
//
// The zero value is not usable; construct with NewRankCond. A RankCond
// may be reused across runs — Init resets it.
type RankCond[S any] struct {
	rank func(*S) int
	m    int     // rank-space size; ranks outside [1, m] count as unranked
	cur  []int32 // cached rank per agent
	// mult is the multiplicity of each rank value while below
	// spilled; a rank that spilled agents or more hold reads spilled
	// here and keeps its count in spill. Almost every rank is held by
	// at most one agent, so a byte per rank suffices, and the map
	// stays empty outside pathological configurations.
	mult     []uint8
	spill    map[int32]int32
	assigned int // agents whose rank lies in [1, m]
	dups     int // rank values held by more than one agent
}

// spilled is the mult value of a rank whose count lives in the spill
// map: 255 or more agents hold it.
const spilled = 255

// RankCondBytes is what a RankCond over n agents and rank space [1, m]
// holds once Init has seen them, in the worst case: 4 B of cached rank
// per agent, a byte of multiplicity per rank in [0, m], and the spill
// map at its largest, one entry for each of the at most n/255 ranks
// that 255 or more agents can hold at once.
func RankCondBytes(n, m int) int64 {
	return 4*int64(n) + int64(m+1) + spillEntryBytes*int64(min(m, n/spilled))
}

// spillEntryBytes bounds what one entry of the spill map costs,
// counting the slack of a table that has just doubled and the tables
// it outgrew (TestDescCondBytes measures it).
const spillEntryBytes = 128

// NewRankCond returns a RankCond over rank space [1, m] (m ≤ 0 means
// "population size", resolved at Init). rank must return an agent's
// current rank, or any value outside [1, m] when the agent is unranked.
func NewRankCond[S any](m int, rank func(*S) int) *RankCond[S] {
	return &RankCond[S]{rank: rank, m: m}
}

// Init (re)builds the tracker from the full configuration.
func (c *RankCond[S]) Init(states []S) {
	n := len(states)
	m := c.m
	if m <= 0 {
		m = n
	}
	if cap(c.cur) < n {
		c.cur = make([]int32, n)
	}
	c.cur = c.cur[:n]
	if cap(c.mult) < m+1 {
		c.mult = make([]uint8, m+1)
	}
	c.mult = c.mult[:m+1]
	clear(c.mult)
	clear(c.spill)
	c.assigned, c.dups = 0, 0
	for i := range states {
		rk := c.rank(&states[i])
		if rk < 1 || rk > m {
			rk = 0
		}
		c.cur[i] = int32(rk)
		c.add(rk)
	}
}

func (c *RankCond[S]) add(rk int) {
	if rk == 0 {
		return
	}
	c.assigned++
	k := c.mult[rk]
	if k >= spilled-1 {
		c.addSpilled(rk, k)
		return
	}
	c.mult[rk] = k + 1
	if k == 1 {
		c.dups++
	}
}

func (c *RankCond[S]) remove(rk int) {
	if rk == 0 {
		return
	}
	c.assigned--
	k := c.mult[rk]
	if k == spilled {
		c.removeSpilled(rk)
		return
	}
	c.mult[rk] = k - 1
	if k == 2 {
		c.dups--
	}
}

// addSpilled adds a holder to a rank that 254 or more agents hold.
func (c *RankCond[S]) addSpilled(rk int, k uint8) {
	if k == spilled {
		c.spill[int32(rk)]++
		return
	}
	if c.spill == nil {
		c.spill = make(map[int32]int32)
	}
	c.mult[rk] = spilled
	c.spill[int32(rk)] = spilled
}

// removeSpilled removes a holder from a rank whose count is in spill.
func (c *RankCond[S]) removeSpilled(rk int) {
	if c.spill[int32(rk)]--; c.spill[int32(rk)] < spilled {
		delete(c.spill, int32(rk))
		c.mult[rk] = spilled - 1
	}
}

// Update refreshes agent i's cached rank.
func (c *RankCond[S]) Update(i int, states []S) {
	rk := c.rank(&states[i])
	if rk < 1 || rk >= len(c.mult) {
		rk = 0
	}
	if old := int(c.cur[i]); old != rk {
		c.remove(old)
		c.add(rk)
		c.cur[i] = int32(rk)
	}
}

// Done reports whether every agent holds a distinct rank in [1, m].
func (c *RankCond[S]) Done() bool {
	return c.assigned == len(c.cur) && c.dups == 0
}
