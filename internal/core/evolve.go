package core

import (
	"context"
	"strings"

	"orchestra/internal/provenance"
	"orchestra/internal/value"
)

// Spec evolution at the view level (the repair half of internal/evolve):
// a live view is rewired onto a new Spec and its materialized state —
// instances and provenance — is repaired in place instead of being
// recomputed from publication zero.
//
// Every evolution — a new peer, an added, removed or redefined mapping,
// a trust change, or any diff combining them — is one repair: the
// paper's provenance-driven deletion generalized from tuple deletions to
// rule deletions, followed by one semi-naive round seeded with the rules
// the new program adds or changes (engine.RunRules). Which rows to
// delete and which rules to seed fall out of comparing the compiled
// programs before and after, rule by rule; every trust verdict is a
// filter whose description carries its content, so a trust change is a
// rule-text change like any other.
//
// Evolve follows the dirty-flag discipline of maintain.go: a repair
// interrupted by cancellation leaves the view marked dirty, and the next
// operation recovers by full recomputation under the (already installed)
// new spec.

// mappingRuleBase extracts the mapping id from a compiled rule id:
// "m1'" → "m1", "m1”#2" → "m1", "in$R”" → "in$R".
func mappingRuleBase(ruleID string) string {
	if i := strings.IndexByte(ruleID, '#'); i >= 0 {
		ruleID = ruleID[:i]
	}
	return strings.TrimRight(ruleID, "'")
}

// Evolve rewires the view onto newSpec and repairs its materialized
// state in one pass:
//
//  1. every user mapping that newSpec drops or redefines under the same
//     id loses its provenance table, and its derivations' targets become
//     suspects of the deletion cascade;
//  2. the program is recompiled once;
//  3. one cascade deletes exactly the tuples left without a derivation:
//     the suspects, plus the provenance rows of changed trust-filtered
//     rules that fail the new filters;
//  4. one semi-naive round seeded with the new or changed rules derives
//     what the new program newly produces.
//
// An unchanged spec fires no rule and deletes nothing. No step reads the
// bus: the cost is in the view's current rows, never in the length of
// the publication history.
func (v *View) Evolve(ctx context.Context, newSpec *Spec) (ApplyStats, error) {
	var stats ApplyStats
	if err := v.repairIfDirty(ctx, &stats); err != nil {
		return stats, err
	}
	v.dirty = true

	oldRules := make(map[string]string, len(v.prog.Rules))
	for _, r := range v.prog.Rules {
		oldRules[r.ID] = r.String()
	}

	// Capture the dropped derivations' targets before the tables go (a
	// redefined mapping's table may change arity), then let the ordinary
	// cascade decide their fate under the new program: a target with
	// surviving alternative derivations stays (subject to the
	// derivability test), the rest cascade away.
	var suspects []tupleNode
	seen := make(map[provenance.Ref]bool)
	var scratch provenance.Scratch
	for _, mi := range v.infos {
		if mi.Transparent {
			continue
		}
		if m := newSpec.Mapping(mi.ID); m != nil && m.String() == v.spec.Mapping(mi.ID).String() {
			continue
		}
		pt := v.db.Table(mi.ProvRel)
		pt.EachRow(func(r value.Row) bool {
			for i := range mi.Targets {
				t := mi.Targets[i].Instantiate(nil, r.Tuple, v.sk, &scratch)
				if ref := provenance.NewRef(mi.Targets[i].Rel, t); !seen[ref] {
					seen[ref] = true
					suspects = append(suspects, tupleNode{ref, t})
				}
			}
			return true
		})
		stats.ProvRowsDeleted += pt.Len()
		v.db.Drop(mi.ProvRel)
	}
	v.spec = newSpec
	if err := v.compile(); err != nil {
		return stats, err
	}

	// A rule is new or changed when its text — head, body and filter
	// descriptions — differs; the whole mapping it belongs to fires.
	fire := make(map[string]bool)
	for _, r := range v.prog.Rules {
		if old, ok := oldRules[r.ID]; !ok || old != r.String() {
			fire[mappingRuleBase(r.ID)] = true
		}
	}

	ds := v.newDeletionState(&stats)
	for _, n := range suspects {
		ds.suspect(n.ref.Rel, n.t)
	}
	// Revocation seeds: rows of changed filtered rules that fail the new
	// filters.
	for _, g := range v.guarded {
		if !fire[mappingRuleBase(g.rule.ID)] {
			continue
		}
		v.db.Table(g.mi.ProvRel).EachRow(func(r value.Row) bool {
			env := varEnv(g.mi.Vars, r.Tuple)
			for _, accept := range g.rule.Filters {
				if !accept(env) {
					ds.provDel = append(ds.provDel, provHandle{mi: g.mi, row: r})
					break
				}
			}
			return true
		})
	}
	if err := ds.run(ctx); err != nil {
		return stats, err
	}

	// Grant side: naive-fire the new and changed rules once; the
	// emit-time duplicate check drops everything already present, so only
	// newly produced derivations materialize and propagate.
	if len(fire) > 0 {
		es, err := v.ev.RunRules(ctx, func(ruleID string) bool {
			return fire[mappingRuleBase(ruleID)]
		})
		stats.Engine.Add(es)
		if err != nil {
			return stats, err
		}
	}
	v.dirty = false
	return stats, nil
}

// varEnv builds a trust-predicate environment binding variable names to
// a provenance row's column values.
func varEnv(vars []string, row value.Tuple) value.Env {
	m := make(map[string]value.Value, len(vars))
	for i, v := range vars {
		m[v] = row[i]
	}
	return value.MapEnv(m)
}
