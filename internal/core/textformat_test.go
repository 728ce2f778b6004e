package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/trust"
	"orchestra/internal/value"
)

// litPieces is the alphabet generated string constants are drawn from:
// space runs, both quote kinds, a backslash, the comment character,
// punctuation, operators and the text formats' keywords.
var litPieces = []string{" ", "   ", `"`, "'", `\`, "#", ",", "(", ")", "->", ":-",
	"=", "<=", "!=", "<>", "where", "and", "when", "exists", "x", "Z"}

func genLiteral(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(5); n >= 0; n-- {
		b.WriteString(litPieces[rng.Intn(len(litPieces))])
	}
	return b.String()
}

// spellLiteral writes a string constant as a user might: single-quoted
// when it holds no single quote, sometimes, and Go-quoted otherwise.
func spellLiteral(rng *rand.Rand, s string) string {
	if !strings.Contains(s, "'") && rng.Intn(2) == 0 {
		return "'" + s + "'"
	}
	return strconv.Quote(s)
}

// renderQuery writes a parsed query back as query text: its head, its
// body over user relation names, and its selection.
func renderQuery(r *datalog.Rule) string {
	body := make([]string, len(r.Body))
	for i, l := range r.Body {
		a := l.Atom
		a.Pred = strings.TrimSuffix(a.Pred, outputSuffix)
		body[i] = a.String()
	}
	q := r.Head.String() + " :- " + strings.Join(body, ", ")
	if len(r.FilterDescs) > 0 {
		q += " where " + strings.Join(r.FilterDescs, " and ")
	}
	return q
}

// genSelection spells a conjunction of one to three comparisons over
// vars, with every operator spelling, both conjunction spellings, and
// uneven spacing.
func genSelection(rng *rand.Rand, vars ...string) string {
	ops := []string{"=", "==", "!=", "<>", "<", "<=", ">", ">="}
	var b strings.Builder
	for i := rng.Intn(3); i >= 0; i-- {
		rhs := strconv.Itoa(rng.Intn(20) - 5)
		if rng.Intn(2) == 0 {
			rhs = spellLiteral(rng, genLiteral(rng))
		}
		space := []string{"", " ", "  "}[rng.Intn(3)]
		fmt.Fprintf(&b, "%s%s%s%s%s", vars[rng.Intn(len(vars))], space, ops[rng.Intn(len(ops))], space, rhs)
		if i > 0 {
			b.WriteString([]string{" and ", " AND ", "  and "}[rng.Intn(3)])
		}
	}
	return b.String()
}

// genQuery spells a query of the read-path equivalence family over
// kindSpec's S(k int, s string) and T(s string, k int): a scan, a probe
// by an integer or a string constant, or a join, each with a selection
// sometimes.
func genQuery(rng *rand.Rand, i int) string {
	var q string
	var vars []string
	switch rng.Intn(4) {
	case 0:
		q, vars = fmt.Sprintf("q%d(k, s) :- S(k, s)", i), []string{"k", "s"}
	case 1:
		q, vars = fmt.Sprintf("q%d(s) :- S(%d, s)", i, rng.Intn(10)), []string{"s"}
	case 2:
		q, vars = fmt.Sprintf("q%d(k) :- S(k,%s)", i, spellLiteral(rng, genLiteral(rng))), []string{"k"}
	default:
		q, vars = fmt.Sprintf("q%d(s) :- S(a0, s), T(s,b1)", i), []string{"s", "a0", "b1"}
	}
	if rng.Intn(2) == 0 {
		q += " where " + genSelection(rng, vars...)
	}
	return q
}

// TestQueryRenderParse checks render∘parse on generated queries and
// selections: a parsed query, written back as text, parses to the same
// rule — equal in structure, with the same Rule.String() — and renders
// to the same text again; a parsed predicate, rendered, parses back
// equal in structure; and a literal reaches its constant unchanged
// however it was spelled.
func TestQueryRenderParse(t *testing.T) {
	v, err := NewView(kindSpec(t), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		q := genQuery(rng, i)
		first, err := v.parseQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		text := renderQuery(first)
		again, err := v.parseQuery(text)
		if err != nil {
			t.Fatalf("%s renders as %s, which does not parse: %v", q, text, err)
		}
		if !reflect.DeepEqual(again.Head, first.Head) || !reflect.DeepEqual(again.Body, first.Body) ||
			!reflect.DeepEqual(again.FilterDescs, first.FilterDescs) || again.String() != first.String() {
			t.Fatalf("%s renders as %s, which parses to %s, want %s", q, text, again, first)
		}
		if re := renderQuery(again); re != text {
			t.Fatalf("%s: render is not a normal form: %s, then %s", q, text, re)
		}

		sel := genSelection(rng, "k", "s")
		p, err := trust.ParsePred(sel)
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		p2, err := trust.ParsePred(p.String())
		if err != nil || !reflect.DeepEqual(p2, p) || p2.String() != p.String() {
			t.Fatalf("%s renders as %s, which parses to %v (%v)", sel, p, p2, err)
		}

		lit := genLiteral(rng)
		q = fmt.Sprintf("ans(k) :- S(k, %s)", spellLiteral(rng, lit))
		r, err := v.parseQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := r.Body[0].Atom.Args[1]; got.Kind != datalog.TermConst || got.Const != value.String(lit) {
			t.Fatalf("%s: constant %v, want %q", q, got, lit)
		}
	}
}
