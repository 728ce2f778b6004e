package datalog

import (
	"fmt"
	"sort"
)

// Stratum is a group of rules that may be evaluated together to fixpoint;
// strata are evaluated in order, so negated predicates are fully computed
// before any rule reads them.
type Stratum struct {
	Rules []*Rule
	// Preds is the sorted set of head predicates defined in this stratum.
	Preds []string
}

// Stratify partitions the program into strata. It returns an error if the
// program is not stratifiable (a predicate depends negatively on itself
// through recursion). Update-exchange programs are always stratifiable:
// negation appears only on rejection tables, which are EDB (§3.1).
func (p *Program) Stratify() ([]*Stratum, error) {
	idb := p.IDBPreds()

	// stratum number per IDB predicate; EDB predicates live at stratum 0.
	level := make(map[string]int)
	for pred := range idb {
		level[pred] = 1
	}

	// Iterate to fixpoint over the constraints:
	//   head ≥ pos-body IDB pred
	//   head ≥ neg-body IDB pred + 1
	// A predicate climbing above len(idb) proves a negative cycle.
	limit := len(idb) + 1
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			h := r.Head.Pred
			for _, l := range r.Body {
				b := l.Atom.Pred
				if !idb[b] {
					continue
				}
				want := level[b]
				if l.Neg {
					want++
				}
				if level[h] < want {
					level[h] = want
					changed = true
					if level[h] > limit {
						return nil, fmt.Errorf("datalog: program not stratifiable: predicate %q depends negatively on itself", h)
					}
				}
			}
		}
	}

	maxLevel := 0
	for _, lv := range level {
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	strata := make([]*Stratum, maxLevel)
	for i := range strata {
		strata[i] = &Stratum{}
	}
	for _, r := range p.Rules {
		lv := level[r.Head.Pred]
		strata[lv-1].Rules = append(strata[lv-1].Rules, r)
	}
	out := strata[:0]
	for _, s := range strata {
		if len(s.Rules) == 0 {
			continue
		}
		predSet := make(map[string]bool)
		for _, r := range s.Rules {
			predSet[r.Head.Pred] = true
		}
		for pred := range predSet {
			s.Preds = append(s.Preds, pred)
		}
		sort.Strings(s.Preds)
		out = append(out, s)
	}
	return out, nil
}
