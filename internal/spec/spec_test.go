package spec

import (
	"context"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/value"
)

const paperSpecText = `
# The paper's running bioinformatics example (Examples 1-4).
peer PGUS {
  relation G(id int, can int, nam int)
}
peer PBioSQL { relation B(id int, nam int) }
peer PuBio   { relation U(nam int, can int) }

mapping m1: G(i,c,n) -> B(i,n)
mapping m2: G(i,c,n) -> U(n,c)
mapping m3: B(i,n) -> exists c . U(n,c)
mapping m4: B(i,c), U(n,c) -> B(i,n)

trust PBioSQL distrusts mapping m1 when n >= 3
trust PBioSQL distrusts mapping m4 when n != 2
trust PBioSQL distrusts peer PuBio
trust PuBio   distrusts base B when n >= 3

edit PGUS    + G(1,2,3)
edit PGUS    + G(3,5,2)
edit PBioSQL + B(3,5)
edit PuBio   + U(2,5)
edit PBioSQL - B(3,2)
`

func TestParsePaperSpec(t *testing.T) {
	f, err := ParseString(paperSpecText)
	if err != nil {
		t.Fatal(err)
	}
	u := f.Spec.Universe
	if len(u.Peers()) != 3 {
		t.Fatalf("peers: %v", u.Peers())
	}
	g := u.Relation("G")
	if g == nil || g.Arity() != 3 || g.Peer != "PGUS" {
		t.Fatalf("G = %+v", g)
	}
	if len(f.Spec.Mappings) != 4 || f.Spec.Mapping("m4") == nil {
		t.Fatalf("mappings: %v", f.Spec.Mappings)
	}
	pol := f.Spec.Policy("PBioSQL")
	if pol == nil || !pol.DistrustsPeer("PuBio") || len(pol.Conditions("m1")) != 1 {
		t.Fatalf("policy: %+v", pol)
	}
	if len(f.Edits) != 5 {
		t.Fatalf("edits: %v", f.Edits)
	}
	logs := f.EditLogs()
	if len(logs["PGUS"]) != 2 || len(logs["PBioSQL"]) != 2 || len(logs["PuBio"]) != 1 {
		t.Fatalf("logs: %v", logs)
	}
	if logs["PBioSQL"][1].Insert || logs["PBioSQL"][1].Rel != "B" {
		t.Fatalf("deletion edit: %v", logs["PBioSQL"][1])
	}
}

func TestParsedSpecRunsEndToEnd(t *testing.T) {
	f, err := ParseString(paperSpecText)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bus := core.NewMemoryBus()
	for peer, log := range f.EditLogs() {
		if err := core.PublishTo(ctx, bus, f.Spec, peer, log); err != nil {
			t.Fatal(err)
		}
	}
	v, err := core.NewView(f.Spec, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.ExchangeInto(ctx, bus, v, core.Cursor{}, core.DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	// Global view ignores PBioSQL's conditions? No: target-peer conditions
	// compose (§3.3), so B(1,3) (via m1, n=3) must be rejected even here.
	if v.Instance("B").Contains(core.MakeTuple(1, 3)) {
		t.Fatalf("target-peer condition not applied:\n%s", v.DB().Dump())
	}
	if !v.Instance("B").Contains(core.MakeTuple(3, 5)) {
		t.Fatal("local contribution missing")
	}
}

func TestMultiRelationPeerBlock(t *testing.T) {
	text := `
peer P {
  relation A(x int)
  relation B(y string, z any)
}
mapping m: A(x) -> B('k', x)
`
	f, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec.Universe.Relation("B").Arity() != 2 {
		t.Fatal("B arity")
	}
}

func TestSingleLinePeer(t *testing.T) {
	f, err := ParseString(`peer P { relation A(x) relation B(y) }` + "\nmapping m: A(x) -> B(x)\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec.Universe.Relation("A") == nil || f.Spec.Universe.Relation("B") == nil {
		t.Fatal("relations missing")
	}
}

func TestAutoMappingIDs(t *testing.T) {
	f, err := ParseString(`
peer P { relation A(x) relation B(y) }
mapping A(x) -> B(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec.Mappings[0].ID != "m1" {
		t.Fatalf("auto id = %q", f.Spec.Mappings[0].ID)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text, frag string
	}{
		{"unknown directive", "wibble\n", "unknown directive"},
		{"bad peer", "peer\n", "unknown directive"},
		{"peer no brace", "peer P\n", "missing '{'"},
		{"unterminated peer", "peer P {\n relation A(x)\n", "unterminated"},
		{"junk in peer", "peer P {\n shrubbery\n}\n", "unexpected"},
		{"bad relation", "peer P { relation A }\n", "bad relation"},
		{"empty columns", "peer P { relation A() }\n", "no columns"},
		{"bad column type", "peer P { relation A(x floop) }\n", "unknown type"},
		{"bad mapping", "peer P { relation A(x) }\nmapping A(x) B(x)\n", "->"},
		{"dup peer", "peer P { relation A(x) }\npeer P { relation B(x) }\n", "duplicate peer"},
		{"bad trust verb", "peer P { relation A(x) }\ntrust P hates mapping m\n", "bad trust"},
		{"peer distrust with cond", "peer P { relation A(x) }\ntrust P distrusts peer Q when x > 1\n", "cannot carry"},
		{"base distrust no cond", "peer P { relation A(x) }\ntrust P distrusts base A\n", "when"},
		{"bad edit sign", "peer P { relation A(x) }\nedit P ~ A(1)\n", "sign"},
		{"edit var tuple", "peer P { relation A(x) }\nedit P + A(y)\n", "ground"},
		{"edit unknown rel", "peer P { relation A(x) }\nedit P + Z(1)\n", "unknown relation"},
		{"edit cross peer", "peer P { relation A(x) }\npeer Q { relation B(x) }\nedit P + B(1)\n", "cannot edit"},
		{"edit wrong arity", "peer P { relation A(x) }\nedit P + A(1,2)\n", "arity"},
		{"mapping unknown rel", "peer P { relation A(x) }\nmapping m: A(x) -> Z(x)\n", "unknown relation"},
	}
	for _, c := range cases {
		_, err := ParseString(c.text)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestComments(t *testing.T) {
	f, err := ParseString(`
# full-line comment
peer P { relation A(x) }  # trailing comment
mapping m: A(x) -> A(x)   # identity-ish (full tgd, weakly acyclic)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Spec.Mappings) != 1 {
		t.Fatal("mapping lost")
	}
}

func TestTrustsMappingDirective(t *testing.T) {
	f, err := ParseString(`
peer P { relation A(x) }
peer Q { relation B(x) }
mapping m: A(x) -> B(x)
trust Q trusts mapping m when x < 5
`)
	if err != nil {
		t.Fatal(err)
	}
	pol := f.Spec.Policy("Q")
	if pol == nil || len(pol.Conditions("m")) != 1 {
		t.Fatal("condition missing")
	}
}

// TestMappingStringConstant is a mapping with a string constant. The
// renderer used to write the constant bare, so the rendered spec read
// back with a variable in its place, and the constant spec shared its
// fingerprint with the variable one.
func TestMappingStringConstant(t *testing.T) {
	const decls = "peer P { relation A(x int, y string) relation B(x int) }\n"
	constant, err := ParseString(decls + `mapping m: A(x, "abc") -> B(x)` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	variable, err := ParseString(decls + "mapping m: A(x, abc) -> B(x)\n")
	if err != nil {
		t.Fatal(err)
	}
	text := Render(constant)
	if !strings.Contains(text, `A(x,"abc")`) {
		t.Fatalf("constant rendered unquoted:\n%s", text)
	}
	again, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFile(constant, again) {
		t.Fatalf("rendered constant spec reads back as %s", again.Spec.Mappings[0])
	}
	if constant.Spec.Fingerprint() == variable.Spec.Fingerprint() {
		t.Fatalf("constant and variable specs share fingerprint %s", constant.Spec.Fingerprint())
	}
}

// TestEditLiterals are edit constants the old line splitter changed or
// refused: a space run, a '#', and an escaped quote — which is also the
// text Render writes for such a value.
func TestEditLiterals(t *testing.T) {
	for _, c := range []struct{ name, lit, want string }{
		{"space run", `"a  b"`, "a  b"},
		{"hash", `"a#b"`, "a#b"},
		{"escaped quote", `"a\"b"`, `a"b`},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := ParseString("peer P { relation A(s string) }\nedit P + A(" + c.lit + ")\n")
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Edits[0].Edit.Tuple[0].AsString(); got != c.want {
				t.Fatalf("edit loads %q, want %q", got, c.want)
			}
			again, err := ParseString(Render(f))
			if err != nil {
				t.Fatalf("rendered spec does not parse: %v\n%s", err, Render(f))
			}
			if !sameFile(f, again) {
				t.Fatalf("rendered edit reads back as %v", again.Edits[0].Edit)
			}
		})
	}
}

// TestTrustConditionLiterals are trust conditions whose constants hold a
// space run or the word "and": the directive parser used to collapse the
// first and split the second.
func TestTrustConditionLiterals(t *testing.T) {
	for _, c := range []struct{ name, lit, want string }{
		{"space run", `"a  b"`, "a  b"},
		{"and", `"x and y"`, "x and y"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := ParseString("peer P { relation S(s string) }\npeer Q { relation T(s string) }\n" +
				"trust Q distrusts base S when s = " + c.lit + "\n")
			if err != nil {
				t.Fatal(err)
			}
			cond := f.Spec.Policy("Q").BaseConditions()[0].Distrust
			if !cond.Eval(value.MapEnv{"s": value.String(c.want)}) || cond.String() != "s = "+c.lit {
				t.Fatalf("condition %s, want s = %s", cond, c.lit)
			}
			again, err := ParseString(Render(f))
			if err != nil {
				t.Fatalf("rendered spec does not parse: %v\n%s", err, Render(f))
			}
			if !sameFile(f, again) {
				t.Fatalf("rendered condition reads back as %s", again.Spec.Policy("Q").BaseConditions()[0].Distrust)
			}
		})
	}
}
