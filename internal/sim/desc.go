package sim

import "ssrank/internal/proto"

// DescCond builds the engine stop condition a descriptor prescribes
// for protocol instance p: the protocol-specific tracker when the
// descriptor overrides one (Cond), else the permutation tracker over
// the descriptor's rank projection and rank space — the incremental
// form of the descriptor's Valid predicate either way. proto.Condition
// and Condition have identical method sets, so the override converts
// implicitly.
func DescCond[S any, P any](d proto.Descriptor[S, P], p P) Condition[S] {
	if d.Cond != nil {
		return d.Cond(p)
	}
	m := 0
	if d.Space != nil {
		m = d.Space(p)
	}
	return NewRankCond(m, d.Rank)
}

// DescCondBytes is what DescCond(d, p)'s tracker holds once Init has
// seen n agents: the descriptor's CondBytes for its own tracker, else
// the RankCond's per-agent and per-rank arrays.
func DescCondBytes[S any, P any](d proto.Descriptor[S, P], p P, n int) int64 {
	if d.Cond != nil {
		return d.CondBytes(p)
	}
	m := 0
	if d.Space != nil {
		m = d.Space(p)
	}
	if m <= 0 {
		m = n
	}
	// cur holds one rank per agent, mult one count per rank in [0, m].
	return 4*int64(n) + 4*int64(m+1)
}
