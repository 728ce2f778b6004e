package provenance

import (
	"context"
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/engine"
	"orchestra/internal/semiring"
	"orchestra/internal/storage"
	"orchestra/internal/tgd"
	"orchestra/internal/value"
)

// paperFixture materializes Examples 5–7 of the paper: base relations
// G_l/B_l/U_l, user relations G/B/U, the mappings m1/m3/m4, the
// provenance encoding, and evaluation to fixpoint.
type paperFixture struct {
	db *storage.Database
	sk *value.SkolemTable
	g  *Graph
	// token refs
	p1, p2, p3 Ref
	b32        Ref // derived B(3,2)
}

func buildPaper(t *testing.T) *paperFixture {
	t.Helper()
	db := storage.NewDatabase()
	db.MustCreate("G_l", 3)
	db.MustCreate("B_l", 2)
	db.MustCreate("U_l", 2)
	db.MustCreate("G", 3)
	db.MustCreate("B", 2)
	db.MustCreate("U", 2)

	userTGDs := []*tgd.TGD{
		tgd.MustParse("m1: G(i,c,n) -> B(i,n)"),
		tgd.MustParse("m3: B(i,n) -> U(n,c)"),
		tgd.MustParse("m4: B(i,c), U(n,c) -> B(i,n)"),
	}
	locTGDs := []*tgd.TGD{
		tgd.MustParse("loc_G: G_l(i,c,n) -> G(i,c,n)"),
		tgd.MustParse("loc_B: B_l(i,n) -> B(i,n)"),
		tgd.MustParse("loc_U: U_l(n,c) -> U(n,c)"),
	}

	prog := datalog.NewProgram()
	var infos []*MappingInfo
	addEnc := func(m *tgd.TGD, transparent bool) {
		enc := m.Encode()
		db.MustCreate(enc.ProvRel, len(enc.ProvVars))
		prog.Add(enc.Populate)
		prog.Add(enc.Derive...)
		mi, err := FromEncoding(enc)
		if err != nil {
			t.Fatal(err)
		}
		mi.Transparent = transparent
		infos = append(infos, mi)
	}
	for _, m := range locTGDs {
		addEnc(m, true)
	}
	for _, m := range userTGDs {
		addEnc(m, false)
	}

	// Example 6 base data.
	db.Table("B_l").Insert(value.Tuple{value.Int(3), value.Int(5)})               // p1
	db.Table("U_l").Insert(value.Tuple{value.Int(2), value.Int(5)})               // p2
	db.Table("G_l").Insert(value.Tuple{value.Int(3), value.Int(5), value.Int(2)}) // p3

	sk := value.NewSkolemTable()
	ev, err := engine.New(prog, db, sk, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	base := map[string]bool{"G_l": true, "B_l": true, "U_l": true}
	g := NewGraph(db, sk, infos, base)

	f := &paperFixture{
		db: db, sk: sk, g: g,
		p1:  NewRef("B_l", value.Tuple{value.Int(3), value.Int(5)}),
		p2:  NewRef("U_l", value.Tuple{value.Int(2), value.Int(5)}),
		p3:  NewRef("G_l", value.Tuple{value.Int(3), value.Int(5), value.Int(2)}),
		b32: NewRef("B", value.Tuple{value.Int(3), value.Int(2)}),
	}
	names := map[Ref]string{f.p1: "p1", f.p2: "p2", f.p3: "p3"}
	g.SetTokenNamer(func(r Ref) string {
		if n, ok := names[r]; ok {
			return n
		}
		return r.String()
	})
	return f
}

func TestExample6Expression(t *testing.T) {
	f := buildPaper(t)
	if !f.db.Table("B").Contains(value.Tuple{value.Int(3), value.Int(2)}) {
		t.Fatalf("B(3,2) not derived:\n%s", f.db.Dump("B"))
	}
	expr := f.g.ExprFor(f.b32, 0)
	// Example 6: Pv(B(3,2)) = m1(p3) + m4(p1·p2).
	if got := expr.String(); got != "m1(p3) + m4(p1·p2)" {
		t.Fatalf("Pv(B(3,2)) = %q", got)
	}
	if toks := Tokens(expr); len(toks) != 3 {
		t.Fatalf("Tokens = %v", toks)
	}
}

func TestExample6NestedExpression(t *testing.T) {
	f := buildPaper(t)
	// U(2, sk_m3_c(2)) is m3's image of B(3,2):
	// Pv = m3(m1(p3)) + m3(m4(p1·p2)) after homomorphic distribution.
	skv := f.sk.Apply("sk_m3_c", value.Tuple{value.Int(2)})
	uRef := NewRef("U", value.Tuple{value.Int(2), skv})
	if !f.db.Table("U").Contains(uRef.Tuple()) {
		t.Fatalf("U(2,c2) not derived:\n%s", f.db.Dump("U"))
	}
	expr := f.g.ExprFor(uRef, 0)
	if got := expr.String(); got != "m3(m1(p3)) + m3(m4(p1·p2))" {
		t.Fatalf("Pv(U(2,c2)) = %q", got)
	}
}

func TestExample7TrustEvaluation(t *testing.T) {
	f := buildPaper(t)
	bool3 := semiring.Bool{}

	eval := func(tokTrust map[Ref]bool, mapTrust map[string]bool) bool {
		vals, err := Eval[bool](context.Background(), f.g, bool3,
			func(m string, x bool) bool {
				if v, ok := mapTrust[m]; ok {
					return v && x
				}
				return x
			},
			func(r Ref) bool {
				if v, ok := tokTrust[r]; ok {
					return v
				}
				return true
			}, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return vals[f.b32]
	}

	// Example 7: p1=T, p3=T, p2=D, trivial Θ ⇒ B(3,2) trusted.
	if !eval(map[Ref]bool{f.p1: true, f.p3: true, f.p2: false}, nil) {
		t.Fatal("Example 7: B(3,2) should be trusted")
	}
	// Example 6's closing remark: distrusting p2 AND m1 rejects B(3,2)…
	if eval(map[Ref]bool{f.p2: false}, map[string]bool{"m1": false}) {
		t.Fatal("distrusting {p2, m1} should reject B(3,2)")
	}
	// …but distrusting p1 and p2 does not.
	if !eval(map[Ref]bool{f.p1: false, f.p2: false}, nil) {
		t.Fatal("distrusting {p1, p2} should keep B(3,2)")
	}
}

func TestCountingEvaluation(t *testing.T) {
	f := buildPaper(t)
	vals, err := Eval[int64](context.Background(), f.g, semiring.Count{}, semiring.Identity[int64](),
		func(Ref) int64 { return 1 }, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// B(3,2) has two derivations: via m1 and via m4.
	if vals[f.b32] != 2 {
		t.Fatalf("count(B(3,2)) = %d, want 2", vals[f.b32])
	}
	// Base tuple counts are 1.
	if vals[f.p1] != 1 {
		t.Fatalf("count(p1) = %d", vals[f.p1])
	}
}

func TestTropicalEvaluation(t *testing.T) {
	f := buildPaper(t)
	// Charge 1 per mapping application: cheapest derivation of B(3,2) is
	// min(m1: 1, m4: 1) = 1; of U(2,c2) is 2 (m3 over either).
	vals, err := Eval[int64](context.Background(), f.g, semiring.Tropical{},
		func(_ string, x int64) int64 { return semiring.Tropical{}.Mul(x, 1) },
		func(Ref) int64 { return 0 }, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vals[f.b32] != 1 {
		t.Fatalf("cost(B(3,2)) = %d, want 1", vals[f.b32])
	}
	skv := f.sk.Apply("sk_m3_c", value.Tuple{value.Int(2)})
	uRef := NewRef("U", value.Tuple{value.Int(2), skv})
	if vals[uRef] != 2 {
		t.Fatalf("cost(U(2,c2)) = %d, want 2", vals[uRef])
	}
}

func TestLineageEvaluation(t *testing.T) {
	f := buildPaper(t)
	lin := semiring.Lineage{}
	vals, err := Eval[semiring.LineageElem](context.Background(), f.g, lin, semiring.Identity[semiring.LineageElem](),
		func(r Ref) semiring.LineageElem { return semiring.Token(f.g.TokenName(r)) },
		EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := vals[f.b32]
	want := semiring.NewTokenSet("p1", "p2", "p3")
	if got.Bottom || !got.Set.Equal(want) {
		t.Fatalf("lineage(B(3,2)) = %v, want %v", got, want)
	}
}

func TestDerivationsOf(t *testing.T) {
	f := buildPaper(t)
	derivs := f.g.DerivationsOf(f.b32)
	if len(derivs) != 2 {
		t.Fatalf("got %d derivations, want 2", len(derivs))
	}
	// Sorted by mapping id: m1 then m4.
	if derivs[0].Mapping.ID != "m1" || derivs[1].Mapping.ID != "m4" {
		t.Fatalf("mappings: %s, %s", derivs[0].Mapping.ID, derivs[1].Mapping.ID)
	}
	if len(derivs[1].Sources) != 2 {
		t.Fatalf("m4 sources: %v", derivs[1].Sources)
	}
}

func TestSupport(t *testing.T) {
	f := buildPaper(t)
	sup := f.g.Support([]Ref{f.b32})
	for _, want := range []Ref{f.p1, f.p2, f.p3} {
		if !sup[want] {
			t.Fatalf("support missing %v (got %v)", want, sup)
		}
	}
	// Deleted base tuples no longer support anything.
	f.db.Table("B_l").Delete(f.p1.Tuple())
	sup = f.g.Support([]Ref{f.b32})
	if sup[f.p1] {
		t.Fatal("deleted base tuple still in support")
	}
	if !sup[f.p3] {
		t.Fatal("support lost p3")
	}
}

func TestGraphDot(t *testing.T) {
	f := buildPaper(t)
	dot := f.g.Dot(nil)
	for _, frag := range []string{"digraph", "m1", "m4", "shape=box", "shape=ellipse"} {
		if !strings.Contains(dot, frag) {
			t.Fatalf("Dot missing %q", frag)
		}
	}
}

// buildCycle creates mutually recursive mappings ma: P→Q, mb: Q→P with a
// base seed, to exercise cyclic provenance.
func buildCycle(t *testing.T) (*Graph, Ref) {
	t.Helper()
	db := storage.NewDatabase()
	db.MustCreate("S_l", 1)
	db.MustCreate("P", 1)
	db.MustCreate("Q", 1)
	prog := datalog.NewProgram()
	var infos []*MappingInfo
	add := func(m *tgd.TGD, transparent bool) {
		enc := m.Encode()
		db.MustCreate(enc.ProvRel, len(enc.ProvVars))
		prog.Add(enc.Populate)
		prog.Add(enc.Derive...)
		mi, err := FromEncoding(enc)
		if err != nil {
			t.Fatal(err)
		}
		mi.Transparent = transparent
		infos = append(infos, mi)
	}
	add(tgd.MustParse("loc: S_l(x) -> P(x)"), true)
	add(tgd.MustParse("ma: P(x) -> Q(x)"), false)
	add(tgd.MustParse("mb: Q(x) -> P(x)"), false)
	db.Table("S_l").Insert(value.Tuple{value.Int(1)})
	sk := value.NewSkolemTable()
	ev, err := engine.New(prog, db, sk, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := NewGraph(db, sk, infos, map[string]bool{"S_l": true})
	return g, NewRef("P", value.Tuple{value.Int(1)})
}

func TestCyclicExpressionHasCycleVar(t *testing.T) {
	g, pRef := buildCycle(t)
	expr := g.ExprFor(pRef, 0)
	s := expr.String()
	if !strings.Contains(s, "Pv[") {
		t.Fatalf("cyclic expression lacks CycleVar: %q", s)
	}
	// The direct token must also appear (P(1) is a local insert image).
	if !strings.Contains(s, "S_l(1)") {
		t.Fatalf("expression lacks base token: %q", s)
	}
}

func TestCyclicTrustConverges(t *testing.T) {
	g, pRef := buildCycle(t)
	vals, err := Eval[bool](context.Background(), g, semiring.Bool{}, semiring.Identity[bool](),
		func(Ref) bool { return true }, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !vals[pRef] {
		t.Fatal("P(1) should be trusted")
	}
	// Distrust the seed: the P↔Q loop alone cannot sustain trust — the
	// least fixpoint is false (matching the paper's edb-derivability
	// requirement for garbage collection).
	vals, err = Eval[bool](context.Background(), g, semiring.Bool{}, semiring.Identity[bool](),
		func(Ref) bool { return false }, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vals[pRef] {
		t.Fatal("P(1) trusted with distrusted seed (cycle sustained itself)")
	}
}

func TestCyclicCountSaturates(t *testing.T) {
	g, pRef := buildCycle(t)
	// Infinitely many derivations around the loop: the saturating count
	// must hit its cap rather than diverge.
	vals, err := Eval[int64](context.Background(), g, semiring.Count{Cap: 1000}, semiring.Identity[int64](),
		func(Ref) int64 { return 1 }, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vals[pRef] != 1000 {
		t.Fatalf("count = %d, want saturation at 1000", vals[pRef])
	}
}

func TestZeroExpr(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreate("X_l", 1)
	db.MustCreate("X", 1)
	g := NewGraph(db, value.NewSkolemTable(), nil, map[string]bool{"X_l": true})
	expr := g.ExprFor(NewRef("X", value.Tuple{value.Int(1)}), 0)
	if _, ok := expr.(Zero); !ok {
		t.Fatalf("expected Zero, got %q", expr.String())
	}
}

func TestInternalMappingTemplate(t *testing.T) {
	mi := InternalMapping("ins_B", "p$ins_B", "B_i", "B_o", 2)
	if !mi.Transparent || mi.ProvRel != "p$ins_B" {
		t.Fatalf("mi = %+v", mi)
	}
	row := value.Tuple{value.Int(1), value.Int(2)}
	src := mi.Sources[0].Instantiate(nil, row, value.NewSkolemTable(), new(Scratch))
	dst := mi.Targets[0].Instantiate(nil, row, value.NewSkolemTable(), new(Scratch))
	if !src.Equal(row) || !dst.Equal(row) {
		t.Fatal("identity templates")
	}
	if mi.Sources[0].Rel != "B_i" || mi.Targets[0].Rel != "B_o" {
		t.Fatal("rels")
	}
}

func TestRefRoundTrip(t *testing.T) {
	tup := value.Tuple{value.Int(3), value.String("x")}
	r := NewRef("B", tup)
	if !r.Tuple().Equal(tup) {
		t.Fatal("ref tuple round trip")
	}
	if r.String() != `B(3, "x")` {
		t.Fatalf("String = %q", r.String())
	}
}
