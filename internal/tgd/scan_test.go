package tgd

import (
	"strconv"
	"strings"
	"testing"

	"orchestra/internal/value"
)

func TestScanTokens(t *testing.T) {
	type tok struct {
		kind Kind
		text string
		pos  int
	}
	for _, c := range []struct {
		src  string
		want []tok
	}{
		{`m1: R(x,-7) -> S('a b')`, []tok{
			{Ident, "m1", 0}, {Punct, ":", 2}, {Ident, "R", 4}, {Punct, "(", 5}, {Ident, "x", 6},
			{Punct, ",", 7}, {Int, "-7", 8}, {Punct, ")", 10}, {Punct, "->", 12}, {Ident, "S", 15},
			{Punct, "(", 16}, {String, "a b", 17}, {Punct, ")", 22},
		}},
		// '#' inside a literal is text; outside, it ends the line.
		{`S("a#b") # ignored ) (`, []tok{
			{Ident, "S", 0}, {Punct, "(", 1}, {String, "a#b", 2}, {Punct, ")", 7},
		}},
		// "…" decodes escapes; '…' is the bytes between the quotes.
		{`"a\"b\\" 'c\d'`, []tok{{String, `a"b\`, 0}, {String, `c\d`, 9}}},
		{`ans(k) :- S(k, s) where s <= "x and y"`, []tok{
			{Ident, "ans", 0}, {Punct, "(", 3}, {Ident, "k", 4}, {Punct, ")", 5}, {Punct, ":-", 7},
			{Ident, "S", 10}, {Punct, "(", 11}, {Ident, "k", 12}, {Punct, ",", 13}, {Ident, "s", 15},
			{Punct, ")", 16}, {Ident, "where", 18}, {Ident, "s", 24}, {Punct, "<=", 26},
			{String, "x and y", 29},
		}},
		{"n<>3 !x", []tok{{Ident, "n", 0}, {Punct, "<>", 1}, {Int, "3", 3}, {Punct, "!", 5}, {Ident, "x", 6}}},
		{`"open`, []tok{{Bad, `"open`, 0}}},
		{`"bad \q"`, []tok{{Bad, `"bad \q"`, 0}}},
	} {
		s := Scan(c.src)
		var got []tok
		for !s.Done() {
			tk := s.Next()
			got = append(got, tok{tk.Kind, tk.Text, tk.Pos})
		}
		if len(got) != len(c.want) {
			t.Errorf("%q: tokens %v, want %v", c.src, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q: token %d is %v, want %v", c.src, i, got[i], c.want[i])
			}
		}
	}
}

// TestParseLiteralHoldsArrow is a mapping whose string constant spells
// "->": the old parser split the text at the first arrow, inside the
// literal, and refused it as unbalanced.
func TestParseLiteralHoldsArrow(t *testing.T) {
	m, err := Parse(`A(x), A("p -> q") -> B(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.LHS) != 2 || m.LHS[1].Args[0].Const != value.String("p -> q") || m.RHS[0].Pred != "B" {
		t.Fatalf("parsed %s", m)
	}
	if again := MustParse(m.String()); again.String() != m.String() {
		t.Fatalf("%s re-parses as %s", m, again)
	}
}

// FuzzScan checks the scanner on arbitrary text: it never panics, its
// tokens lie in order inside the text with only space and comments
// between them, and writing the tokens back out — a string literal
// through strconv.Quote, everything else as its source text — scans to
// the same tokens.
func FuzzScan(f *testing.F) {
	f.Add(`m1: G(i,c,n) -> exists z . B(i,"a \"b\"", 'c#d', -7) # tail`)
	f.Add(`ans(k) :- S(k, s), T(s, 'x') where s != "a where b" and k >= 3`)
	f.Add("peer P {\n  relation R(a int, b string) # c\n}\n")
	f.Add(`trust P distrusts mapping "" when s = "x and y"`)
	f.Add("\"open\n'also open")
	f.Fuzz(func(t *testing.T, src string) {
		s := Scan(src)
		var toks []Token
		prev := 0
		for !s.Done() {
			tk := s.Next()
			if tk.Pos < prev || tk.End <= tk.Pos || tk.End > len(src) {
				t.Fatalf("%q: token %v out of place after offset %d", src, tk, prev)
			}
			if gap := Scan(src[prev:tk.Pos]); !gap.Done() {
				t.Fatalf("%q: text %q between tokens holds a token", src, src[prev:tk.Pos])
			}
			if tk.Kind == Bad {
				return
			}
			if tk.Kind != String && tk.Text != src[tk.Pos:tk.End] {
				t.Fatalf("%q: token text %q is not its source %q", src, tk.Text, src[tk.Pos:tk.End])
			}
			toks = append(toks, tk)
			prev = tk.End
		}
		parts := make([]string, len(toks))
		for i, tk := range toks {
			parts[i] = tk.Text
			if tk.Kind == String {
				parts[i] = strconv.Quote(tk.Text)
			}
		}
		again := Scan(strings.Join(parts, " "))
		for i, tk := range toks {
			got := again.Next()
			if got.Kind != tk.Kind || got.Text != tk.Text {
				t.Fatalf("%q: token %d %v re-scans as %v", src, i, tk, got)
			}
		}
		if !again.Done() {
			t.Fatalf("%q: re-scan has extra token %v", src, again.Peek())
		}
	})
}
