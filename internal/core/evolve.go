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
//   - Mapping addition recompiles the program and runs a semi-naive round
//     seeded with only the new mappings' rules (engine.RunRules),
//     so cost scales with the new rules' derivations.
//   - Mapping removal and trust revocation are the paper's
//     provenance-driven deletion generalized from tuple deletions to rule
//     deletions: exactly the tuples whose every derivation uses a
//     removed (or newly untrusted) mapping are deleted, via the same
//     cascade + derivability loop ApplyEdits uses. Trust grants are a
//     semi-naive round seeded with the populate rules the new policies
//     may newly accept.
//
// All operations follow the dirty-flag discipline of maintain.go: a
// repair interrupted by cancellation leaves the view marked dirty, and
// the next operation recovers by full recomputation under the (already
// installed) new spec.

// mappingRuleBase extracts the mapping id from a compiled rule id:
// "m1'" → "m1", "m1”#2" → "m1", "in$R”" → "in$R".
func mappingRuleBase(ruleID string) string {
	if i := strings.IndexByte(ruleID, '#'); i >= 0 {
		ruleID = ruleID[:i]
	}
	return strings.TrimRight(ruleID, "'")
}

// Recompile rewires the view onto newSpec without any state repair —
// correct only for evolutions that cannot change the fixpoint, i.e.
// adding peers/relations (their tables start empty, so the new
// bookkeeping rules derive nothing).
func (v *View) Recompile(ctx context.Context, newSpec *Spec) error {
	var stats ApplyStats
	if err := v.repairIfDirty(ctx, &stats); err != nil {
		return err
	}
	v.spec = newSpec
	return v.compile()
}

// AddMappings rewires the view onto newSpec — the current spec extended
// by the mappings named in added — and repairs materialized state with a
// semi-naive round seeded with only the new mappings' rules: existing
// source instances flow through the new populate rules once, and
// everything they derive propagates through the whole program to
// fixpoint.
func (v *View) AddMappings(ctx context.Context, newSpec *Spec, added []string) (ApplyStats, error) {
	var stats ApplyStats
	if err := v.repairIfDirty(ctx, &stats); err != nil {
		return stats, err
	}
	v.dirty = true
	v.spec = newSpec
	if err := v.compile(); err != nil {
		return stats, err
	}
	addedSet := make(map[string]bool, len(added))
	for _, id := range added {
		addedSet[id] = true
	}
	es, err := v.ev.RunRules(ctx, func(ruleID string) bool {
		return addedSet[mappingRuleBase(ruleID)]
	})
	stats.Engine.Add(es)
	if err != nil {
		return stats, err
	}
	v.dirty = false
	return stats, nil
}

// RemoveMappings rewires the view onto newSpec — the current spec minus
// the mappings named in removed — and deletes exactly the tuples whose
// every derivation in the provenance graph uses a removed mapping (the
// paper's deletion propagation generalized to rule deletions).
func (v *View) RemoveMappings(ctx context.Context, newSpec *Spec, removed []string) (ApplyStats, error) {
	var stats ApplyStats
	if err := v.repairIfDirty(ctx, &stats); err != nil {
		return stats, err
	}
	removedSet := make(map[string]bool, len(removed))
	for _, id := range removed {
		removedSet[id] = true
	}
	v.dirty = true

	// Capture the removed derivations' targets before the tables drop,
	// then let the ordinary cascade decide their fate under the new
	// program: a target with surviving alternative derivations stays
	// (subject to the derivability test), the rest cascade away.
	var suspects []provenance.Ref
	seen := make(map[provenance.Ref]bool)
	for _, mi := range v.infos {
		if !removedSet[mi.ID] || mi.Transparent {
			continue
		}
		pt := v.db.Table(mi.ProvRel)
		pt.EachRow(func(r value.Row) bool {
			for i := range mi.Targets {
				ref := provenance.NewRef(mi.Targets[i].Rel, mi.Targets[i].Instantiate(r.Tuple, v.sk))
				if !seen[ref] {
					seen[ref] = true
					suspects = append(suspects, ref)
				}
			}
			return true
		})
		// Dropping a removed mapping's provenance table deletes all of its
		// derivations wholesale; compile() then rebuilds program, engine,
		// and graph without the mapping.
		stats.ProvRowsDeleted += pt.Len()
		v.db.Drop(mi.ProvRel)
	}
	v.spec = newSpec
	if err := v.compile(); err != nil {
		return stats, err
	}
	ds := v.newDeletionState(&stats)
	for _, ref := range suspects {
		ds.suspect(ref)
	}
	if err := ds.run(ctx); err != nil {
		return stats, err
	}
	v.dirty = false
	return stats, nil
}

// ApplyTrust rewires the view onto newSpec — same peers and mappings,
// changed trust policies — and repairs it in place. Every trust verdict
// is a filter on a populate rule: mapping conditions Θ on the user
// mappings', and base trust (peer distrust, base conditions) on the
// (ℓR) rule's, whose source Rℓ keeps every contributed tuple. So
// provenance rows failing the new filters are revoked through the
// deletion cascade, and a seeded round over the user mappings and the
// (ℓR) rules derives what the new policies newly accept. The cost is in
// the view's current rows, never in the length of the publication
// history.
func (v *View) ApplyTrust(ctx context.Context, newSpec *Spec) (ApplyStats, error) {
	var stats ApplyStats
	if err := v.repairIfDirty(ctx, &stats); err != nil {
		return stats, err
	}
	v.dirty = true
	v.spec = newSpec
	if err := v.compile(); err != nil {
		return stats, err
	}

	// Revocation seeds: provenance rows that fail the new filters.
	ds := v.newDeletionState(&stats)
	for _, g := range v.guarded {
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

	// Grant side: naive-fire every user mapping's and (ℓR) rule once
	// under the new filters; the emit-time duplicate check drops
	// everything already present, so only newly trusted derivations
	// materialize and propagate.
	fire := make(map[string]bool, len(newSpec.Mappings))
	for _, m := range newSpec.Mappings {
		fire[m.ID] = true
	}
	for _, rel := range newSpec.Universe.Relations() {
		fire[locMapID(rel.Name)] = true
	}
	es, err := v.ev.RunRules(ctx, func(ruleID string) bool {
		return fire[mappingRuleBase(ruleID)]
	})
	stats.Engine.Add(es)
	if err != nil {
		return stats, err
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
