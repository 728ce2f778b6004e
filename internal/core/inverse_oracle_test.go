package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/engine"
	"orchestra/internal/provenance"
	"orchestra/internal/value"
)

// Declarative derivation testing (§4.1.3), kept as a test oracle. The
// paper turns the mapping rules "inside out": for every mapping rule
// (m″) R(x̄,f̄(x̄)) :- P_mi(v̄) an inverse rule P′_mi(v̄) :- P_mi(v̄),
// R_chk(x̄) recovers the provenance rows relevant to the tuples under
// check, and source-expansion rules mark the body tuples those rows
// consumed, recursively, down to the local-contribution tables. The
// procedural View.supportOf is the optimized equivalent the runtime
// uses; the tests cross-check the two.
//
// The oracle builds its c$/pi$ tables in a private copy of the view (a
// WriteSnapshot → RestoreView round trip), so the live view's database
// never holds them.

// chkRel names the R_chk relation of an internal relation.
func chkRel(rel string) string { return "c$" + rel }

// invProvRel names the P′ relation of a mapping.
func invProvRel(mapID string) string { return "pi$" + mapID }

// inverseOracle is the inverse program built over a private copy of a
// view.
type inverseOracle struct {
	v      *View // the private copy
	prog   *datalog.Program
	ev     *engine.Evaluator
	tables []string // every c$/pi$ table, for clearing
}

// newInverseOracle copies live and constructs the inverse program and
// its tables in the copy.
func newInverseOracle(t *testing.T, live *View) *inverseOracle {
	t.Helper()
	var snap bytes.Buffer
	if err := live.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	v, err := RestoreView(live.spec, live.owner, live.opts, &snap)
	if err != nil {
		t.Fatal(err)
	}
	o := &inverseOracle{v: v, prog: datalog.NewProgram()}

	// R_chk tables, one per internal relation that can be derived.
	for _, rel := range v.spec.Universe.Relations() {
		for _, name := range []string{
			LocalRel(rel.Name), RejectRel(rel.Name), InputRel(rel.Name), OutputRel(rel.Name),
		} {
			cname := chkRel(name)
			if _, err := v.db.Create(cname, v.db.Table(name).Arity()); err != nil {
				t.Fatal(err)
			}
			o.tables = append(o.tables, cname)
		}
	}

	for _, mi := range v.infos {
		pName := invProvRel(mi.ID)
		arity := len(mi.Vars)
		if _, err := v.db.Create(pName, arity); err != nil {
			t.Fatal(err)
		}
		o.tables = append(o.tables, pName)

		provArgs := make([]datalog.Term, arity)
		varName := func(i int) string { return fmt.Sprintf("v%d", i) }
		for i := range provArgs {
			provArgs[i] = datalog.V(varName(i))
		}

		// P′_mi(v̄) :- R_chk(target-args), P_mi(v̄) — one rule per target
		// atom. The chk atom comes first so the compiled plan is driven
		// by the (small) suspect set. Skolem positions stay Skolem terms:
		// the engine evaluates them as computed equality checks, so chk
		// tuples with non-null values there match nothing (exact join).
		for ti := range mi.Targets {
			tmpl := &mi.Targets[ti]
			chkArgs := make([]datalog.Term, len(tmpl.Args))
			for ai, spec := range tmpl.Args {
				switch {
				case spec.Col >= 0:
					chkArgs[ai] = provArgs[spec.Col]
				case spec.Col == -1:
					chkArgs[ai] = datalog.C(spec.Const)
				default:
					skArgs := make([]string, len(spec.FnArgCols))
					for j, c := range spec.FnArgCols {
						skArgs[j] = varName(c)
					}
					chkArgs[ai] = datalog.Sk(spec.Fn, skArgs...)
				}
			}
			o.prog.Add(datalog.NewRule(
				fmt.Sprintf("inv:%s:t%d", mi.ID, ti),
				datalog.NewAtom(pName, provArgs...),
				datalog.Pos(datalog.NewAtom(chkRel(tmpl.Rel), chkArgs...)),
				datalog.Pos(datalog.NewAtom(mi.ProvRel, provArgs...)),
			))
		}

		// R_chk(source-args) :- P′_mi(v̄) — one rule per source atom,
		// marking the body tuples of relevant derivations for recursive
		// checking (the paper's φ′ expansion).
		for si := range mi.Sources {
			tmpl := &mi.Sources[si]
			srcArgs := make([]datalog.Term, len(tmpl.Args))
			for ai, spec := range tmpl.Args {
				if spec.Col >= 0 {
					srcArgs[ai] = provArgs[spec.Col]
				} else {
					srcArgs[ai] = datalog.C(spec.Const)
				}
			}
			o.prog.Add(datalog.NewRule(
				fmt.Sprintf("inv:%s:s%d", mi.ID, si),
				datalog.NewAtom(chkRel(tmpl.Rel), srcArgs...),
				datalog.Pos(datalog.NewAtom(pName, provArgs...)),
			))
		}
	}

	o.ev, err = engine.New(o.prog, v.db, v.sk, engine.Options{Backend: v.opts.Backend})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// support computes the supporting base tuples of the targets by running
// the inverse-rule program to fixpoint — the paper's formulation of the
// backward pass. It must agree with the procedural supportOf.
func (o *inverseOracle) support(t *testing.T, targets []provenance.Ref) map[provenance.Ref]bool {
	t.Helper()
	defer o.clear()

	// Seed the chk tables with the suspects.
	for _, ref := range targets {
		tbl := o.v.db.Table(chkRel(ref.Rel))
		if tbl == nil {
			t.Fatalf("no chk relation for %q", ref.Rel)
		}
		tbl.Insert(ref.Tuple())
	}
	o.ev.InvalidateAllTransient()
	if _, err := o.ev.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Support = chk rows over local-contribution tables that are actually
	// present ("filter the R′ relations … to only include values from
	// local contributions tables").
	support := make(map[provenance.Ref]bool)
	for _, rel := range o.v.spec.Universe.Relations() {
		lname := LocalRel(rel.Name)
		ltbl := o.v.db.Table(lname)
		o.v.db.Table(chkRel(lname)).Each(func(row value.Tuple) bool {
			if ltbl.Contains(row) {
				support[provenance.NewRef(lname, row)] = true
			}
			return true
		})
	}
	return support
}

// clear empties the oracle's workspace tables.
func (o *inverseOracle) clear() {
	for _, name := range o.tables {
		o.v.db.Table(name).Clear()
	}
	o.v.ev.InvalidateAllTransient()
}

// supportDeclarative runs the oracle once over a fresh copy of v.
func supportDeclarative(t *testing.T, v *View, targets []provenance.Ref) map[provenance.Ref]bool {
	t.Helper()
	return newInverseOracle(t, v).support(t, targets)
}
