package query

import "sort"

// maxOrderNodes bounds the optimizer's search. The search is depth-first in
// ascending cardinality, so without unservable access paths it reaches its
// answer after len(Patterns) nodes; the cap only matters for adversarial
// inputs whose variable-predicate patterns force long backtracking, which
// then keep their translation order.
const maxOrderNodes = 4096

// ChooseOrder is the walk-order optimizer: it returns the plan recompiled in
// the connected, servable pattern order whose per-step pattern cardinalities
// (est.PatternCard) are lexicographically smallest — the most selective
// pattern roots the walk, and each later step is the most selective pattern
// connected to what is already bound. Ties keep translation order. It is the
// best of Query.ValidOrders() under that score, found without materializing
// the permutations: a depth-first search that tries candidates in ascending
// (cardinality, translation index) reaches the lexicographic minimum first.
//
// pinRoot keeps pattern 0 as the root and reorders only the rest; backends
// whose routing reads the root pattern (sharded COUNT(DISTINCT) ownership)
// set it.
//
// The result carries Order and StepCard. A plan that already carries them is
// returned unchanged — a plan is chosen once, by whoever holds the
// statistics, and every later seam runs it as given. The choice is a pure
// function of the query and the estimator's pattern cardinalities. Filters
// and α/β sites are re-anchored by compilation as for any order.
func ChooseOrder(pl *Plan, est Estimator, pinRoot bool) *Plan {
	if pl.Order != nil {
		return pl
	}
	q := pl.Query
	n := len(q.Patterns)
	cards := make([]float64, n)
	byCard := make([]int, n)
	for i, p := range q.Patterns {
		cards[i] = est.PatternCard(p).Value
		byCard[i] = i
	}
	sort.SliceStable(byCard, func(a, b int) bool { return cards[byCard[a]] < cards[byCard[b]] })

	perm := make([]int, 0, n)
	used := make([]bool, n)
	bound := make([]bool, pl.nvars)
	nodes := 0
	var rec func() bool
	rec = func() bool {
		if len(perm) == n {
			return true
		}
		for _, i := range byCard {
			if used[i] || (pinRoot && len(perm) == 0 && i != 0) {
				continue
			}
			if nodes++; nodes > maxOrderNodes {
				return false
			}
			p := q.Patterns[i]
			var mask [3]bool
			connected := len(perm) == 0
			for pos, a := range [3]Atom{p.S, p.P, p.O} {
				mask[pos] = !a.IsVar() || bound[a.Var]
				connected = connected || (a.IsVar() && bound[a.Var])
			}
			if !connected {
				continue
			}
			if _, _, err := accessPath(mask); err != nil {
				continue
			}
			var added [3]Var
			na := 0
			for _, a := range [3]Atom{p.S, p.P, p.O} {
				if a.IsVar() && !bound[a.Var] {
					bound[a.Var] = true
					added[na] = a.Var
					na++
				}
			}
			used[i] = true
			perm = append(perm, i)
			if rec() {
				return true
			}
			perm = perm[:len(perm)-1]
			used[i] = false
			for _, v := range added[:na] {
				bound[v] = false
			}
		}
		return false
	}

	out := *pl
	if rec() && !isIdentity(perm) {
		nq := &Query{Alpha: q.Alpha, Beta: q.Beta, Distinct: q.Distinct, Agg: q.Agg, Filters: q.Filters}
		for _, i := range perm {
			nq.Patterns = append(nq.Patterns, q.Patterns[i])
		}
		// The search checked connectivity and every access path, and the
		// remaining fragment rules do not depend on pattern order, so a plan
		// that compiled as given compiles reordered.
		cp, err := compile(nq)
		if err != nil {
			panic("query: ChooseOrder picked an order that does not compile: " + err.Error())
		}
		out = *cp
	} else {
		perm = perm[:0]
		for i := 0; i < n; i++ {
			perm = append(perm, i)
		}
	}
	out.Order = perm
	out.StepCard = make([]float64, n)
	for i, pi := range perm {
		out.StepCard[i] = cards[pi]
	}
	return &out
}

func isIdentity(perm []int) bool {
	for i, v := range perm {
		if v != i {
			return false
		}
	}
	return true
}
