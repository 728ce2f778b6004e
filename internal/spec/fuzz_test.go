package spec

import (
	"reflect"
	"testing"
)

// sameFile reports whether two parsed files are equal in structure: the
// same peers and relations, mappings with the same terms (variables,
// and constants of the same kind and bytes), the same policy clauses,
// and the same edit tuples. It does not go through rendering, so a
// renderer that writes two different files the same way cannot hide.
func sameFile(a, b *File) bool {
	return reflect.DeepEqual(a.Spec.Universe, b.Spec.Universe) &&
		reflect.DeepEqual(a.Spec.Mappings, b.Spec.Mappings) &&
		reflect.DeepEqual(a.Spec.Policies, b.Spec.Policies) &&
		reflect.DeepEqual(a.Edits, b.Edits)
}

// FuzzParse throws arbitrary text at the .cdss parser. The parser must
// never panic; and whenever it accepts an input, rendering the parsed
// file and re-parsing the result must succeed, give a file equal in
// structure to the first parse, and render identically (render∘parse is
// a normal form — the property the orchestra CLI's spec round-tripping
// relies on).
func FuzzParse(f *testing.F) {
	f.Add(`# the paper's running example
peer PGUS {
  relation G(id int, can int, nam int)
}
peer PBioSQL { relation B(id int, nam int) }
peer PuBio   { relation U(nam int, can int) }

mapping m1: G(i,c,n) -> B(i,n)
mapping m3: B(i,n) -> exists c . U(n,c)

trust PBioSQL distrusts mapping m1 when n >= 3
trust PBioSQL distrusts peer PuBio
trust PBioSQL distrusts base B when n >= 3

edit PGUS + G(1,2,3)
edit PGUS - G(1,2,3)
`)
	f.Add("peer P { relation R(a int) }\nmapping m1: R(x) -> R(x)\n")
	f.Add("peer P { relation R(a string, b int) }\nedit P + R('x',1)\n")
	f.Add("peer P {}\n")
	f.Add("mapping m1: A(x) -> B(x)")
	f.Add("trust P distrusts peer Q\n")
	f.Add("peer P { relation R(a int) }\npeer P { relation R(a int) }\n")
	f.Add("peer P { relation A(x int, y string) relation B(x int) }\nmapping m: A(x, \"abc\") -> B(x)\n")
	f.Add("peer P { relation A(x string) relation B(x string) }\nmapping m: A(x), A(\"p -> q\") -> B(x)\n")
	f.Add("peer P { relation A(s string) }\nedit P + A(\"a  b\")\nedit P + A(\"a#b\")\nedit P + A(\"a\\\"b\")\n")
	f.Add("peer P { relation S(s string) }\npeer Q { relation T(s string) }\n" +
		"trust Q distrusts base S when s = \"a  b\"\ntrust Q distrusts mapping '' when s = \"x and y\"\n")
	f.Fuzz(func(t *testing.T, input string) {
		file, err := ParseString(input)
		if err != nil {
			return
		}
		rendered := Render(file)
		again, err := ParseString(rendered)
		if err != nil {
			t.Fatalf("accepted input rendered to unparseable text:\ninput: %q\nrendered: %q\nerr: %v", input, rendered, err)
		}
		if !sameFile(file, again) {
			t.Fatalf("rendered file reads back different:\ninput: %q\nrendered: %q", input, rendered)
		}
		if re := Render(again); re != rendered {
			t.Fatalf("render is not a normal form:\nfirst:  %q\nsecond: %q", rendered, re)
		}
	})
}
