package provenance

import (
	"context"
	"strings"
	"testing"

	"orchestra/internal/race"
	"orchestra/internal/semiring"
	"orchestra/internal/storage"
	"orchestra/internal/tgd"
	"orchestra/internal/value"
)

func TestAtomTemplateConstantsAndSkolems(t *testing.T) {
	sk := value.NewSkolemTable()
	at := AtomTemplate{Rel: "R", Args: []ArgSpec{
		{Col: 1},
		{Col: -1, Const: value.String("k")},
		{Col: -2, Fn: "f", FnArgCols: []int{0, 1}},
	}}
	row := value.Tuple{value.Int(10), value.Int(20)}
	got := at.Instantiate(nil, row, sk, new(Scratch))
	if got[0] != value.Int(20) || got[1] != value.String("k") {
		t.Fatalf("instantiate: %v", got)
	}
	if !got[2].IsNull() {
		t.Fatal("skolem column not null")
	}
	if sk.Describe(got[2]) != "f(10,20)" {
		t.Fatalf("skolem term: %s", sk.Describe(got[2]))
	}

	// Into a reused buffer and scratch, the same instance comes back, and
	// once its term is interned it costs no allocation.
	var s Scratch
	buf := at.Instantiate(make(value.Tuple, 0, 3), row, sk, &s)
	if !buf.Equal(got) {
		t.Fatalf("instantiate into a buffer: %v, want %v", buf, got)
	}
	if race.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { buf = at.Instantiate(buf, row, sk, &s) }); n != 0 {
		t.Errorf("instantiating into a reused buffer allocates %v per call, want 0", n)
	}
}

func TestFromEncodingErrors(t *testing.T) {
	// A tgd whose encoding is manually corrupted: provenance columns that
	// do not cover a variable are rejected.
	m := tgd.MustParse("m: R(x,y) -> S(x)")
	enc := m.Encode()
	enc.ProvVars = []string{"x"} // drop y
	if _, err := FromEncoding(enc); err == nil {
		t.Fatal("missing provenance column accepted")
	}
}

func TestTokensAndMappingsOnDegenerateExprs(t *testing.T) {
	if got := Tokens(Zero{}); len(got) != 0 {
		t.Fatalf("Tokens(Zero) = %v", got)
	}
	e := Sum{Args: []Expr{
		Apply{Mapping: "m2", Arg: Token{Name: "p1"}},
		Prod{Args: []Expr{Token{Name: "p2"}, Apply{Mapping: "m1", Arg: Token{Name: "p1"}}}},
	}}
	if got := Tokens(e); len(got) != 2 || got[0] != "p1" || got[1] != "p2" {
		t.Fatalf("Tokens = %v", got)
	}
}

func TestExprStringParenthesization(t *testing.T) {
	// Products containing sums must parenthesize.
	e := Prod{Args: []Expr{
		Token{Name: "a"},
		Sum{Args: []Expr{Token{Name: "b"}, Token{Name: "c"}}},
	}}
	if got := e.String(); got != "a·(b + c)" {
		t.Fatalf("String = %q", got)
	}
	if got := (CycleVar{Ref: Ref{Rel: "R", Key: value.Tuple{value.Int(1)}.Key()}}).String(); got != "Pv[R(1)]" {
		t.Fatalf("CycleVar = %q", got)
	}
}

func TestEvalNonConvergenceGuard(t *testing.T) {
	g, _ := buildCycle(t)
	// An adversarial "semiring" that never stabilizes: Add always grows.
	growing := growingSemiring{}
	_, err := Eval[int64](context.Background(), g, growing, semiring.Identity[int64](),
		func(Ref) int64 { return 1 }, EvalOptions{MaxIterations: 25})
	if err == nil {
		t.Fatal("non-convergent evaluation did not error")
	}
	if !strings.Contains(err.Error(), "converge") {
		t.Fatalf("error: %v", err)
	}
}

// growingSemiring violates idempotence-convergence on purpose (it is not
// a lawful semiring; it exists to exercise the iteration guard).
type growingSemiring struct{}

func (growingSemiring) Zero() int64          { return 0 }
func (growingSemiring) One() int64           { return 1 }
func (growingSemiring) Add(a, b int64) int64 { return a + b + 1 }
func (growingSemiring) Mul(a, b int64) int64 { return a + b }
func (growingSemiring) Eq(a, b int64) bool   { return a == b }

func TestDotHide(t *testing.T) {
	f := buildPaper(t)
	full := f.g.Dot(nil)
	hidden := f.g.Dot(map[string]bool{"m4": true})
	if len(hidden) >= len(full) {
		t.Fatal("hide did not shrink output")
	}
	if strings.Contains(hidden, `label="m4"`) {
		t.Fatal("hidden mapping still rendered")
	}
}

func TestWhyProvenanceIntegration(t *testing.T) {
	f := buildPaper(t)
	vals, err := Eval[semiring.WitnessSet](context.Background(), f.g, semiring.Why{},
		semiring.Identity[semiring.WitnessSet](),
		func(r Ref) semiring.WitnessSet { return semiring.Witness(f.g.TokenName(r)) },
		EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// why(B(3,2)) = {{p3}, {p1,p2}}: two distinguishable witnesses —
	// strictly finer than lineage's flat {p1,p2,p3}.
	got := vals[f.b32]
	want := semiring.NewWitnessSet(
		semiring.NewTokenSet("p3"),
		semiring.NewTokenSet("p1", "p2"),
	)
	if !got.Equal(want) {
		t.Fatalf("why(B(3,2)) = %v, want %v", got, want)
	}
}

func TestGraphOverMissingProvTables(t *testing.T) {
	// Mappings whose provenance tables are absent are skipped gracefully.
	db := storage.NewDatabase()
	db.MustCreate("A_l", 1)
	db.MustCreate("A", 1)
	mi := InternalMapping("x", "p$x", "A_l", "A", 1)
	g := NewGraph(db, value.NewSkolemTable(), []*MappingInfo{mi}, map[string]bool{"A_l": true})
	if d := g.DerivationsOf(NewRef("A", value.Tuple{value.Int(1)})); d != nil {
		t.Fatalf("derivations from missing table: %v", d)
	}
	sup := g.Support([]Ref{NewRef("A", value.Tuple{value.Int(1)})})
	if len(sup) != 0 {
		t.Fatalf("support: %v", sup)
	}
}
