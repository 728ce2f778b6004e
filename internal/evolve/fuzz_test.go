package evolve

import (
	"reflect"
	"testing"
)

// FuzzParse throws arbitrary text at the .cdssd spec-diff parser. The
// parser must never panic; and whenever it accepts an input, rendering
// the parsed diff and re-parsing the result must succeed with operations
// equal in structure to the first parse — peers, mapping terms down to
// each constant's kind and bytes, trust directives — and an identical
// re-rendering (render∘parse is a normal form — what `orchestra evolve`
// and orchestrad's admin endpoints round-trip through).
func FuzzParse(f *testing.F) {
	f.Add(`# grow the confederation
add peer PRef {
  relation Z(a int, b int)
}
add mapping m4: U(n,c) -> C(n,n)
remove mapping m1
trust PBioSQL distrusts mapping m4 when n >= 3
untrust PBioSQL
`)
	f.Add("remove mapping m1\n")
	f.Add("add mapping m9: A(x,y) -> exists z . B(x,z)\n")
	f.Add("add peer P { relation R(a string) }")
	f.Add("trust P distrusts peer Q\n")
	f.Add("set trust nonsense\n")
	f.Add("add mapping m: A(x, \"abc\") -> B(x)\nadd mapping n: A(x), A(\"p -> q\") -> B(x)\n")
	f.Add("trust Q distrusts base S when s = \"a  b\"\ntrust Q trusts mapping '' when s = \"x and y\" and t<'a=b'\n")
	f.Add("add peer P { # a comment } in a line\n  relation R(a int) # and one after\n}\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ParseString(input)
		if err != nil {
			return
		}
		rendered := d.String()
		again, err := ParseString(rendered)
		if err != nil {
			t.Fatalf("accepted diff rendered to unparseable text:\ninput: %q\nrendered: %q\nerr: %v", input, rendered, err)
		}
		if !reflect.DeepEqual(again.Ops, d.Ops) {
			t.Fatalf("rendered diff reads back different:\ninput: %q\nrendered: %q", input, rendered)
		}
		if re := again.String(); re != rendered {
			t.Fatalf("render is not a normal form:\nfirst:  %q\nsecond: %q", rendered, re)
		}
	})
}
