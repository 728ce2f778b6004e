package tgd

import (
	"fmt"
	"slices"

	"orchestra/internal/datalog"
)

// Parse parses a tgd in textual form:
//
//	m1: G(i,c,n) -> B(i,n)
//	m4: B(i,c), U(n,c) -> B(i,n)
//	m3: B(i,n) -> exists c . U(n,c)
//
// The "id:" prefix and the "exists … ." clause are optional (existential
// variables are inferred as RHS-only variables; when an explicit clause is
// present it is checked against the inferred set). Identifiers are
// variables; integers and quoted strings are constants.
func Parse(input string) (*TGD, error) {
	s := Scan(input)
	id := ""
	if look := s; look.Next().Kind == Ident && look.Accept(":") {
		id = s.Next().Text
		s.Next()
	}
	lhs, err := s.Atoms()
	if err != nil {
		return nil, fmt.Errorf("tgd %s: LHS: %w", id, err)
	}
	if !s.Accept("->") {
		return nil, fmt.Errorf("tgd: missing '->' in %q", input)
	}
	var declared []string
	if look := s; look.Accept("exists") && !look.Accept("(") {
		s = look
		for !s.Accept(".") {
			v := s.Next()
			if v.Kind != Ident {
				return nil, fmt.Errorf("tgd %s: 'exists' clause missing '.'", id)
			}
			declared = append(declared, v.Text)
			s.Accept(",")
		}
	}
	rhs, err := s.Atoms()
	if err == nil {
		err = s.ExpectDone()
	}
	if err != nil {
		return nil, fmt.Errorf("tgd %s: RHS: %w", id, err)
	}
	m := &TGD{ID: id, LHS: lhs, RHS: rhs}
	if declared != nil {
		inferred := m.ExistentialVars()
		if !slices.Equal(slices.Sorted(slices.Values(declared)), slices.Sorted(slices.Values(inferred))) {
			return nil, fmt.Errorf("tgd %s: declared existentials %v do not match RHS-only variables %v",
				id, declared, inferred)
		}
	}
	return m, nil
}

// MustParse is Parse that panics; for tests and static tables.
func MustParse(input string) *TGD {
	m, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return m
}

// ParseAtoms parses a conjunction "R(a,b), S(c)" into atoms.
func ParseAtoms(text string) ([]datalog.Atom, error) {
	s := Scan(text)
	atoms, err := s.Atoms()
	if err == nil {
		err = s.ExpectDone()
	}
	if err != nil {
		return nil, err
	}
	return atoms, nil
}
