package evolve

import (
	"strings"
	"testing"

	"orchestra/internal/spec"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
)

const paperSpecText = `
peer PGUS { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
peer PuBio { relation U(nam int, can int) }
mapping m1: G(i,c,n) -> B(i,n)
mapping m2: G(i,c,n) -> U(n,c)
mapping m3: B(i,n) -> exists c . U(n,c)
`

func paperSpec(t *testing.T) *spec.File {
	t.Helper()
	f, err := spec.ParseString(paperSpecText)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestApplyOpValidation(t *testing.T) {
	sp := paperSpec(t).Spec

	// Duplicate mapping id rejected.
	if _, err := ApplyOp(sp, Op{Kind: OpAddMapping, Mapping: tgd.MustParse("m1: B(i,n) -> U(n,i)")}); err == nil {
		t.Fatal("duplicate mapping id accepted")
	}
	// Unknown relation rejected.
	if _, err := ApplyOp(sp, Op{Kind: OpAddMapping, Mapping: tgd.MustParse("m9: Z(x) -> B(x,x)")}); err == nil {
		t.Fatal("mapping over unknown relation accepted")
	}
	// Weak acyclicity enforced over the evolved set: m3's existential
	// gives a special edge B.nam → U.can; feeding U.can back into B.nam
	// closes a cycle through it.
	if _, err := ApplyOp(sp, Op{Kind: OpAddMapping, Mapping: tgd.MustParse("m9: U(n,c) -> B(n,c)")}); err == nil {
		t.Fatal("weakly cyclic evolution accepted")
	}
	// Unknown mapping removal rejected.
	if _, err := ApplyOp(sp, Op{Kind: OpRemoveMapping, MappingID: "nope"}); err == nil {
		t.Fatal("removing unknown mapping accepted")
	}
	// Trust change for unknown peer rejected.
	if _, err := ApplyOp(sp, Op{Kind: OpSetTrust, TrustPeer: "nope"}); err == nil {
		t.Fatal("trust change for unknown peer accepted")
	}
	// Duplicate peer rejected.
	p, err := spec.ParsePeerDecl("PGUS { relation X(a int) }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyOp(sp, Op{Kind: OpAddPeer, Peer: p}); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

func TestApplyOpDoesNotMutateInput(t *testing.T) {
	sp := paperSpec(t).Spec
	before := sp.Fingerprint()
	nPeers, nMappings := len(sp.Universe.Peers()), len(sp.Mappings)

	pref, err := spec.ParsePeerDecl("PRef { relation C(nam int, cls int) }")
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Kind: OpAddPeer, Peer: pref},
		{Kind: OpAddMapping, Mapping: tgd.MustParse("m4: U(n,c) -> C(n,n)")},
		{Kind: OpRemoveMapping, MappingID: "m1"},
		{Kind: OpTrustDirective, Directive: "PBioSQL distrusts mapping m3 when n >= 5"},
		{Kind: OpSetTrust, TrustPeer: "PuBio", Policy: nil},
	}
	evolved, err := Apply(sp, &Diff{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Fingerprint() != before || len(sp.Universe.Peers()) != nPeers || len(sp.Mappings) != nMappings {
		t.Fatal("ApplyOp mutated the input spec")
	}
	if evolved.Fingerprint() == before {
		t.Fatal("evolution did not change the fingerprint")
	}
	if evolved.Universe.Peer("PRef") == nil || evolved.Mapping("m4") == nil || evolved.Mapping("m1") != nil {
		t.Fatalf("evolved spec wrong: %v", evolved.Mappings)
	}
	if evolved.Policy("PBioSQL") == nil {
		t.Fatal("trust directive not applied")
	}
}

func TestParseRenderRoundTrip(t *testing.T) {
	text := `# evolve the running example
add peer PRef {
  relation C(nam int, cls int)
}
add mapping m4: U(n,c) -> C(n,n)
remove mapping m1
trust PBioSQL distrusts mapping m3 when n >= 5
untrust PuBio
`
	d, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ops) != 5 {
		t.Fatalf("parsed %d ops, want 5: %v", len(d.Ops), d.Ops)
	}
	wantKinds := []OpKind{OpAddPeer, OpAddMapping, OpRemoveMapping, OpTrustDirective, OpSetTrust}
	for i, k := range wantKinds {
		if d.Ops[i].Kind != k {
			t.Fatalf("op %d kind %v, want %v", i, d.Ops[i].Kind, k)
		}
	}
	// Rendering parses back to the same ops.
	d2, err := ParseString(d.String())
	if err != nil {
		t.Fatalf("re-parsing rendered diff: %v\n%s", err, d.String())
	}
	if d2.String() != d.String() {
		t.Fatalf("render not stable:\n%s\nvs\n%s", d.String(), d2.String())
	}
	// And applies cleanly.
	sp := paperSpec(t).Spec
	if _, err := Apply(sp, d); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"frobnicate everything",
		"add mapping",
		"remove mapping",
		"add peer P",
		"untrust",
		"add peer P { relation X(a int)", // unterminated block
		"trust P frobs mapping m",        // a directive is checked when read
		"trust P distrusts base S when",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", bad)
		}
	}
}

// TestParseLiteralsAndComments reads a diff whose constants hold '#',
// "and" and a space run: the old parser cut every line at its first '#'
// and rebuilt trust directives word by word. A trust directive is kept
// as the spec renderer writes it.
func TestParseLiteralsAndComments(t *testing.T) {
	d, err := ParseString(`add mapping m: A(x, "a#b") -> B(x) # why
trust Q distrusts base S when s='x and  y' AND k<>3 # note
`)
	if err != nil {
		t.Fatal(err)
	}
	if c := d.Ops[0].Mapping.LHS[0].Args[1].Const; c.AsString() != "a#b" {
		t.Fatalf("mapping constant %v, want a#b", c)
	}
	if want := `Q distrusts base S when s = "x and  y" and k != 3`; d.Ops[1].Directive != want {
		t.Fatalf("directive %q, want %q", d.Ops[1].Directive, want)
	}
}

func TestDiffSpecs(t *testing.T) {
	old := paperSpec(t).Spec
	newer, err := spec.ParseString(`
peer PGUS { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
peer PuBio { relation U(nam int, can int) }
peer PRef { relation C(nam int, cls int) }
mapping m2: G(i,c,n) -> U(n,c)
mapping m3: B(i,n) -> exists c . U(n,c)
mapping m4: U(n,c) -> C(n,n)
trust PBioSQL distrusts mapping m3 when n >= 5
`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffSpecs(old, newer.Spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(old, d)
	if err != nil {
		t.Fatalf("applying diff: %v\ndiff:\n%s", err, d.String())
	}
	if got.Fingerprint() != newer.Spec.Fingerprint() {
		t.Fatalf("diff application did not reach the target spec\ndiff:\n%s", d.String())
	}
	// Identical specs diff to nothing.
	d0, err := DiffSpecs(old, paperSpec(t).Spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(d0.Ops) != 0 {
		t.Fatalf("identical specs diffed to %v", d0.Ops)
	}
	// Peer removal is unsupported.
	if _, err := DiffSpecs(newer.Spec, old); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("peer removal not rejected: %v", err)
	}
}

func TestDiffSpecsRedefinedMapping(t *testing.T) {
	old := paperSpec(t).Spec
	newer, err := spec.ParseString(strings.Replace(paperSpecText,
		"mapping m1: G(i,c,n) -> B(i,n)",
		"mapping m1: G(i,c,n) -> B(c,n)", 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffSpecs(old, newer.Spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(old, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != newer.Spec.Fingerprint() {
		t.Fatalf("redefinition diff wrong:\n%s", d.String())
	}
}

func TestSetTrustRenderRoundTrip(t *testing.T) {
	sp := paperSpec(t).Spec
	pred, err := trust.ParsePred("n >= 3")
	if err != nil {
		t.Fatal(err)
	}
	pol := trust.NewPolicy("PBioSQL")
	pol.TrustMapping("", pred)        // wildcard any-mapping condition
	pol.DistrustMapping("m1", pred)   // conditional distrust
	pol.DistrustMapping("m3", nil2()) // whole-mapping distrust (trivial pred)
	pol.DistrustPeer("PuBio")
	pol.DistrustBase("B", pred)

	target, err := ApplyOp(sp, Op{Kind: OpSetTrust, TrustPeer: "PBioSQL", Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	d := &Diff{Ops: []Op{{Kind: OpSetTrust, TrustPeer: "PBioSQL", Policy: pol}}}
	reparsed, err := ParseString(d.String())
	if err != nil {
		t.Fatalf("re-parsing rendered SetTrust: %v\n%s", err, d.String())
	}
	got, err := Apply(sp, reparsed)
	if err != nil {
		t.Fatalf("re-applying rendered SetTrust: %v\n%s", err, d.String())
	}
	if got.Fingerprint() != target.Fingerprint() {
		t.Fatalf("SetTrust did not round-trip through the diff syntax:\n%s\ngot policy:\n%swant policy:\n%s",
			d.String(), got.Policy("PBioSQL").Describe(), target.Policy("PBioSQL").Describe())
	}
	// The wildcard scope must come back as the wildcard, not a mapping
	// literally named ''.
	for _, c := range got.Policy("PBioSQL").AllConditions() {
		if c.Mapping == "''" {
			t.Fatalf("wildcard scope parsed as literal '': %v", c)
		}
	}
}

func nil2() *trust.Pred {
	p, _ := trust.ParsePred("")
	return p
}
