package spec

import (
	"strings"
	"testing"

	"orchestra/internal/core"
)

func TestRenderRoundTrip(t *testing.T) {
	f, err := ParseString(paperSpecText)
	if err != nil {
		t.Fatal(err)
	}
	text := Render(f)
	f2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nrendered:\n%s", err, text)
	}
	// Same peers, relations, mappings, edits.
	if len(f2.Spec.Universe.Peers()) != len(f.Spec.Universe.Peers()) {
		t.Fatal("peer count differs")
	}
	for i, m := range f.Spec.Mappings {
		if f2.Spec.Mappings[i].String() != m.String() {
			t.Fatalf("mapping %d: %q vs %q", i, f2.Spec.Mappings[i], m)
		}
	}
	if len(f2.Edits) != len(f.Edits) {
		t.Fatalf("edits: %d vs %d", len(f2.Edits), len(f.Edits))
	}
	for i := range f.Edits {
		if f2.Edits[i].Peer != f.Edits[i].Peer || f2.Edits[i].Edit.String() != f.Edits[i].Edit.String() {
			t.Fatalf("edit %d: %v vs %v", i, f2.Edits[i], f.Edits[i])
		}
	}
	// Policies survive: PBioSQL's conditions and peer distrust.
	pol := f2.Spec.Policy("PBioSQL")
	if pol == nil || !pol.DistrustsPeer("PuBio") || len(pol.Conditions("m1")) != 1 {
		t.Fatalf("policy lost in round trip:\n%s", text)
	}
}

func TestRenderQuotesStrings(t *testing.T) {
	f, err := ParseString(`
peer P { relation A(x string) }
mapping m: A(x) -> A(x)
edit P + A("hello world")
edit P + A("plain")
`)
	if err != nil {
		t.Fatal(err)
	}
	text := Render(f)
	if !strings.Contains(text, `"plain"`) {
		t.Fatalf("unquoted string constant would re-parse as a variable:\n%s", text)
	}
	f2, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Edits) != 2 {
		t.Fatal("edits lost")
	}
}

func TestRenderEdits(t *testing.T) {
	for _, tc := range []struct {
		edit core.Edit
		want string
	}{
		{core.Ins("A", core.MakeTuple(1, "x y")), `edit P + A(1,"x y")` + "\n"},
		{core.Del("A", core.MakeTuple(2, "z")), `edit P - A(2,"z")` + "\n"},
	} {
		if got := renderEdit("P", tc.edit); got != tc.want {
			t.Fatalf("renderEdit = %q, want %q", got, tc.want)
		}
	}
}
