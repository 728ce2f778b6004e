package tgd

import (
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/schema"
	"orchestra/internal/value"
)

func TestRulesWithConstants(t *testing.T) {
	// Constants on both sides survive Skolemization verbatim.
	m := MustParse("m: R(x, 5) -> S(x, 'tag', z)")
	rules := m.Rules()
	if len(rules) != 1 {
		t.Fatal("rule count")
	}
	head := rules[0].Head
	if head.Args[1].Kind != datalog.TermConst || head.Args[1].Const != value.String("tag") {
		t.Fatalf("head const: %+v", head.Args[1])
	}
	if head.Args[2].Kind != datalog.TermSkolem {
		t.Fatalf("existential not Skolemized: %+v", head.Args[2])
	}
	body := rules[0].Body[0].Atom
	if body.Args[1].Const != value.Int(5) {
		t.Fatalf("body const: %+v", body.Args[1])
	}
}

func TestEncodeWithConstants(t *testing.T) {
	m := MustParse("m: R(x, 5) -> S(x)")
	enc := m.Encode()
	// Provenance columns = distinct variables only (x), not constants.
	if len(enc.ProvVars) != 1 || enc.ProvVars[0] != "x" {
		t.Fatalf("ProvVars = %v", enc.ProvVars)
	}
	if err := enc.Populate.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSkolemFnNaming(t *testing.T) {
	m := MustParse("ma: R(x) -> S(x, z)")
	m2 := MustParse("mb: R(x) -> S(x, z)")
	// Separate tgds get separate Skolem functions for the "same" variable
	// (§4.1.1: "a separate Skolem function for each existentially
	// quantified variable in each tgd").
	if m.SkolemFn("z") == m2.SkolemFn("z") {
		t.Fatal("skolem functions collide across tgds")
	}
}

func TestValidatePeersAcrossSides(t *testing.T) {
	u := schema.NewUniverse()
	p := schema.NewPeer("P")
	p.AddRelation("R", schema.Column{Name: "x"})
	q := schema.NewPeer("Q")
	q.AddRelation("S", schema.Column{Name: "x"})
	u.AddPeer(p)
	u.AddPeer(q)
	m := MustParse("m: R(x) -> S(x)")
	if err := m.Validate(u); err != nil {
		t.Fatal(err)
	}
	if got := m.SourcePeers(u); len(got) != 1 || got[0] != "P" {
		t.Fatalf("sources: %v", got)
	}
	if got := m.TargetPeers(u); len(got) != 1 || got[0] != "Q" {
		t.Fatalf("targets: %v", got)
	}
	// Unknown relations resolve to no peers rather than panicking.
	ghost := MustParse("m2: Zed(x) -> S(x)")
	if got := ghost.SourcePeers(u); len(got) != 0 {
		t.Fatalf("ghost sources: %v", got)
	}
}

func TestWeakAcyclicityThroughSharedTarget(t *testing.T) {
	// a: R(x) -> ∃z T(x,z); b: T(x,z) -> R(x). The existential position
	// T.1 has no outgoing edge to R (z does not occur in b's RHS), so the
	// set is weakly acyclic despite the topology loop.
	ms := []*TGD{
		MustParse("a: R(x) -> T(x,z)"),
		MustParse("b: T(x,z) -> R(x)"),
	}
	if err := CheckWeaklyAcyclic(ms); err != nil {
		t.Fatalf("safe loop rejected: %v", err)
	}
	// But making z flow back breaks it: b2: T(x,z) -> R(z).
	ms2 := []*TGD{
		MustParse("a: R(x) -> T(x,z)"),
		MustParse("b2: T(x,z) -> R(z)"),
	}
	if err := CheckWeaklyAcyclic(ms2); err == nil {
		t.Fatal("null-feeding loop accepted")
	}
}

func TestWeakAcyclicityIgnoresConstants(t *testing.T) {
	ms := []*TGD{MustParse("m: R(x, 5) -> R(x, 7)")}
	if err := CheckWeaklyAcyclic(ms); err != nil {
		t.Fatalf("constants should not create edges: %v", err)
	}
}

func TestParseAtomsExported(t *testing.T) {
	atoms, err := ParseAtoms("R(x, 1), S('a b', y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 2 || atoms[1].Args[0].Const != value.String("a b") {
		t.Fatalf("atoms: %v", atoms)
	}
	if _, err := ParseAtoms(""); err == nil {
		t.Fatal("empty conjunction accepted")
	}
}

func TestParseTermErrors(t *testing.T) {
	parseTerm := func(text string) (datalog.Term, error) {
		s := Scan(text)
		term, err := s.Term()
		if err == nil {
			err = s.ExpectDone()
		}
		return term, err
	}
	for _, tok := range []string{"", "9x", "'unterminated", "x-y", `"bad \q escape"`} {
		if _, err := parseTerm(tok); err == nil {
			t.Errorf("term %q accepted", tok)
		}
	}
	// Valid edge cases.
	term, err := parseTerm("x9$")
	if err != nil || term.Var != "x9$" {
		t.Fatalf("ident with digits/$: %v %v", term, err)
	}
}

func TestStringOmitsEmptyID(t *testing.T) {
	m := MustParse("R(x) -> S(x)")
	if strings.Contains(m.String(), ":") {
		t.Fatalf("empty id rendered: %q", m.String())
	}
}
