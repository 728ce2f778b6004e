package datalog

import (
	"strings"
	"testing"

	"orchestra/internal/value"
)

func TestTermString(t *testing.T) {
	if V("x").String() != "x" {
		t.Fatal("var")
	}
	if C(value.Int(3)).String() != "3" {
		t.Fatal("const")
	}
	if Sk("f", "x", "y").String() != "f(x,y)" {
		t.Fatal("skolem")
	}
}

func TestAtomVars(t *testing.T) {
	a := NewAtom("R", V("x"), C(value.Int(1)), Sk("f", "x", "z"), V("y"))
	got := a.Vars()
	want := []string{"x", "z", "y"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestAtomString(t *testing.T) {
	a := NewAtom("R", V("x"), C(value.String("s")))
	// A string constant is quoted, or the text would read back as the
	// variable s.
	if a.String() != `R(x,"s")` {
		t.Fatalf("String = %q", a.String())
	}
}

func TestRuleValidateOK(t *testing.T) {
	r := NewRule("m", NewAtom("H", V("x"), Sk("f", "x")),
		Pos(NewAtom("B", V("x"), V("y"))),
		Neg(NewAtom("N", V("x"))))
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRuleValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		rule *Rule
		frag string
	}{
		{"empty body", NewRule("r", NewAtom("H", V("x"))), "empty body"},
		{"unbound head var", NewRule("r", NewAtom("H", V("z")), Pos(NewAtom("B", V("x")))), "head variable"},
		{"unbound skolem arg", NewRule("r", NewAtom("H", Sk("f", "z")), Pos(NewAtom("B", V("x")))), "head variable"},
		{"unsafe negation", NewRule("r", NewAtom("H", V("x")),
			Pos(NewAtom("B", V("x"))), Neg(NewAtom("N", V("y")))), "unsafe negation"},
		{"skolem-only body", NewRule("r", NewAtom("H", V("x")),
			Pos(NewAtom("B", Sk("f", "x")))), "no positive body"},
		{"unbound body skolem arg", NewRule("r", NewAtom("H", V("x")),
			Pos(NewAtom("B", V("x"), Sk("f", "z")))), "not bound"},
		{"skolem in negated atom", NewRule("r", NewAtom("H", V("x")),
			Pos(NewAtom("B", V("x"))), Neg(NewAtom("N", Sk("f", "x")))), "negated atom"},
		{"only negative body", NewRule("r", NewAtom("H", V("x")),
			Neg(NewAtom("N", V("x")))), "no positive body"},
	}
	for _, c := range cases {
		err := c.rule.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestRuleString(t *testing.T) {
	r := NewRule("m", NewAtom("H", V("x")),
		Pos(NewAtom("B", V("x"))), Neg(NewAtom("N", V("x"))))
	r.AddFilter("x >= 3", func(value.Env) bool { return true })
	got := r.String()
	if got != "H(x) :- B(x), not N(x), [x >= 3]." {
		t.Fatalf("String = %q", got)
	}
}

func TestProgramPredsAndIDB(t *testing.T) {
	p := NewProgram(
		NewRule("r1", NewAtom("A", V("x")), Pos(NewAtom("E", V("x")))),
		NewRule("r2", NewAtom("B", V("x")), Pos(NewAtom("A", V("x")))),
	)
	idb := p.IDBPreds()
	if !idb["A"] || !idb["B"] || idb["E"] {
		t.Fatalf("IDBPreds = %v", idb)
	}
	preds := p.Preds()
	if len(preds) != 3 || preds[0] != "A" || preds[1] != "B" || preds[2] != "E" {
		t.Fatalf("Preds = %v", preds)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStratifyLinear(t *testing.T) {
	// A :- E.  B :- A, not C.  C :- E2.
	p := NewProgram(
		NewRule("r1", NewAtom("A", V("x")), Pos(NewAtom("E", V("x")))),
		NewRule("r3", NewAtom("C", V("x")), Pos(NewAtom("E2", V("x")))),
		NewRule("r2", NewAtom("B", V("x")), Pos(NewAtom("A", V("x"))), Neg(NewAtom("C", V("x")))),
	)
	strata, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != 2 {
		t.Fatalf("got %d strata, want 2", len(strata))
	}
	// A and C must come before B.
	first := strata[0].Preds
	if !(contains(first, "A") && contains(first, "C")) {
		t.Fatalf("first stratum %v", first)
	}
	if !contains(strata[1].Preds, "B") {
		t.Fatalf("second stratum %v", strata[1].Preds)
	}
}

func TestStratifyRecursionOK(t *testing.T) {
	// Mutually recursive positive rules stay in one stratum.
	p := NewProgram(
		NewRule("r1", NewAtom("A", V("x")), Pos(NewAtom("B", V("x")))),
		NewRule("r2", NewAtom("B", V("x")), Pos(NewAtom("A", V("x")))),
		NewRule("r3", NewAtom("A", V("x")), Pos(NewAtom("E", V("x")))),
	)
	strata, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != 1 {
		t.Fatalf("got %d strata, want 1", len(strata))
	}
}

func TestStratifyNegationOnEDB(t *testing.T) {
	// The update-exchange shape: Ro :- Ri, not Rr with Rr EDB.
	p := NewProgram(
		NewRule("tR", NewAtom("Ro", V("x")), Pos(NewAtom("Ri", V("x"))), Neg(NewAtom("Rr", V("x")))),
		NewRule("m", NewAtom("Ri", V("x")), Pos(NewAtom("So", V("x")))),
	)
	strata, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != 1 {
		t.Fatalf("got %d strata, want 1 (negation only on EDB)", len(strata))
	}
}

func TestStratifyRejectsNegativeCycle(t *testing.T) {
	p := NewProgram(
		NewRule("r1", NewAtom("A", V("x")), Pos(NewAtom("E", V("x"))), Neg(NewAtom("B", V("x")))),
		NewRule("r2", NewAtom("B", V("x")), Pos(NewAtom("E", V("x"))), Neg(NewAtom("A", V("x")))),
	)
	if _, err := p.Stratify(); err == nil {
		t.Fatal("negative cycle accepted")
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
