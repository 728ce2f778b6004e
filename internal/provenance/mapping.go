// Package provenance implements the paper's provenance model (§3.2) on
// top of the relational encoding of §4.1.2: provenance graphs whose
// mapping nodes are rows of per-tgd provenance tables, extraction of
// provenance expressions (sums of products under unary mapping functions),
// equation-system evaluation in arbitrary semirings, and the backward
// support computation that powers goal-directed derivability testing
// (§4.1.3).
package provenance

import (
	"fmt"

	"orchestra/internal/datalog"
	"orchestra/internal/tgd"
	"orchestra/internal/value"
)

// ArgSpec says how to compute one column of an atom instance from a
// provenance-table row.
type ArgSpec struct {
	// Col >= 0: copy provenance-row column Col. Col == -1: the constant.
	// Col == -2: Skolem application Fn over provenance columns FnArgCols.
	Col       int
	Const     value.Value
	Fn        string
	FnArgCols []int
}

// AtomTemplate instantiates one atom of a mapping from a provenance row.
type AtomTemplate struct {
	Rel  string
	Args []ArgSpec
}

// Scratch is reusable working memory for Instantiate: the Skolem term's
// argument tuple and key encoding. The zero value is ready to use; a
// Scratch must not be shared between goroutines.
type Scratch struct {
	args value.Tuple
	key  []byte
}

// Instantiate computes the concrete tuple of the template for a given
// provenance row into dst's storage, allocating a new tuple only when
// dst is too small (so a nil dst always yields a fresh one), and
// interns Skolem terms in sk. Skolem arguments and keys are built in s:
// a loop that threads one Scratch and one dst through its calls
// allocates nothing once the terms are interned.
func (at *AtomTemplate) Instantiate(dst, row value.Tuple, sk *value.SkolemTable, s *Scratch) value.Tuple {
	out := dst[:0]
	if cap(out) < len(at.Args) {
		out = make(value.Tuple, 0, len(at.Args))
	}
	for _, a := range at.Args {
		switch {
		case a.Col >= 0:
			out = append(out, row[a.Col])
		case a.Col == -1:
			out = append(out, a.Const)
		default:
			s.args = s.args[:0]
			for _, c := range a.FnArgCols {
				s.args = append(s.args, row[c])
			}
			var v value.Value
			v, s.key = sk.ApplyBuf(a.Fn, s.args, s.key)
			out = append(out, v)
		}
	}
	return out
}

// Matches reports whether the template instantiated from row equals
// want, without building the instance or interning anything. Copied
// columns and constants compare directly. Interning makes a labeled
// null's id equal its term, so a Skolem position matches exactly when
// want holds a null that sk resolves to the template's function over
// row's argument columns; a term never interned cannot be in want.
func (at *AtomTemplate) Matches(row, want value.Tuple, sk *value.SkolemTable) bool {
	if len(want) != len(at.Args) {
		return false
	}
	skolem := false
	for i, a := range at.Args {
		switch {
		case a.Col >= 0:
			if row[a.Col] != want[i] {
				return false
			}
		case a.Col == -1:
			if a.Const != want[i] {
				return false
			}
		default:
			skolem = true
		}
	}
	if !skolem {
		return true
	}
	// Resolve takes the interner's read lock: do it only once every
	// cheap column has matched.
	for i, a := range at.Args {
		if a.Col >= -1 {
			continue
		}
		if !want[i].IsNull() {
			return false
		}
		fn, args, ok := sk.Resolve(want[i].NullID())
		if !ok || fn != a.Fn || len(args) != len(a.FnArgCols) {
			return false
		}
		for j, c := range a.FnArgCols {
			if args[j] != row[c] {
				return false
			}
		}
	}
	return true
}

// MappingInfo describes one mapping's provenance encoding: which table
// holds its derivations and how each row relates source tuples to target
// tuples. Transparent mappings are internal bookkeeping rules (the
// paper's (ℓR)/(tR)) that are spliced out of user-facing provenance
// expressions.
type MappingInfo struct {
	ID          string
	ProvRel     string
	Vars        []string
	Sources     []AtomTemplate
	Targets     []AtomTemplate
	Transparent bool
}

// FromEncoding converts a tgd's provenance encoding into graph metadata.
func FromEncoding(enc *tgd.ProvEncoding) (*MappingInfo, error) {
	mi := &MappingInfo{ID: enc.TGD.ID, ProvRel: enc.ProvRel, Vars: enc.ProvVars}
	colOf := make(map[string]int, len(enc.ProvVars))
	for i, v := range enc.ProvVars {
		colOf[v] = i
	}
	mkTemplate := func(a datalog.Atom) (AtomTemplate, error) {
		at := AtomTemplate{Rel: a.Pred, Args: make([]ArgSpec, len(a.Args))}
		for i, t := range a.Args {
			switch t.Kind {
			case datalog.TermVar:
				c, ok := colOf[t.Var]
				if !ok {
					return at, fmt.Errorf("provenance: %s: variable %q not in provenance columns", enc.TGD.ID, t.Var)
				}
				at.Args[i] = ArgSpec{Col: c}
			case datalog.TermConst:
				at.Args[i] = ArgSpec{Col: -1, Const: t.Const}
			case datalog.TermSkolem:
				spec := ArgSpec{Col: -2, Fn: t.Fn}
				for _, v := range t.FnArgs {
					c, ok := colOf[v]
					if !ok {
						return at, fmt.Errorf("provenance: %s: Skolem arg %q not in provenance columns", enc.TGD.ID, v)
					}
					spec.FnArgCols = append(spec.FnArgCols, c)
				}
				at.Args[i] = spec
			}
		}
		return at, nil
	}
	for _, a := range enc.TGD.LHS {
		at, err := mkTemplate(a)
		if err != nil {
			return nil, err
		}
		mi.Sources = append(mi.Sources, at)
	}
	// Targets come from the Skolemized derive rules so existential
	// positions carry Skolem specs.
	for _, d := range enc.Derive {
		at, err := mkTemplate(d.Head)
		if err != nil {
			return nil, err
		}
		mi.Targets = append(mi.Targets, at)
	}
	return mi, nil
}

// InternalMapping builds the metadata for a bookkeeping rule that copies
// src rows to dst rows one-for-one over `arity` columns (the paper's
// (ℓR) and (tR) rules). Its provenance table has one column per relation
// column.
func InternalMapping(id, provRel, src, dst string, arity int) *MappingInfo {
	args := make([]ArgSpec, arity)
	vars := make([]string, arity)
	for i := range args {
		args[i] = ArgSpec{Col: i}
		vars[i] = fmt.Sprintf("c%d", i)
	}
	return &MappingInfo{
		ID:          id,
		ProvRel:     provRel,
		Vars:        vars,
		Sources:     []AtomTemplate{{Rel: src, Args: args}},
		Targets:     []AtomTemplate{{Rel: dst, Args: args}},
		Transparent: true,
	}
}
