package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"
)

// keyFamily is the query family FuzzQueryCacheKey spells: %[1]s and
// %[2]s are variables, %[3]s is the one constant. The last form's filter
// names a fixed variable, which either spelling may bind in a different
// place.
var keyFamily = []string{
	"ans(%[1]s) :- S(%[1]s, %[3]s)",
	"ans(%[1]s) :- S(%[1]s, %[2]s), T(%[2]s, %[3]s)",
	"ans(%[2]s) :- S(%[1]s, %[2]s) where %[1]s != %[3]s",
	"ans(%[1]s, %[2]s) :- S(%[1]s, %[3]s), T(%[2]s, %[1]s)",
	"ans(%[1]s) :- S(%[1]s, %[2]s), T(%[3]s, %[1]s)",
	"ans(%[1]s, %[2]s) :- S(%[1]s, %[2]s) where va != %[3]s",
}

// fuzzVar turns fuzz bytes into a variable name: a short identifier over
// a small alphabet, so distinct inputs often spell the same name.
func fuzzVar(b string) string {
	var sb strings.Builder
	sb.WriteByte('v')
	for i := 0; i < len(b) && i < 3; i++ {
		sb.WriteByte('a' + b[i]%4)
	}
	return sb.String()
}

// fuzzConst spells a constant of the given kind from fuzz bytes: an
// integer is the bytes themselves when they are decimal, else a small
// hash of them; a string is quoted.
func fuzzConst(isInt bool, b string) string {
	if isInt {
		if n, err := strconv.ParseInt(b, 10, 64); err == nil {
			return strconv.FormatInt(n, 10)
		}
		h := fnv.New32a()
		h.Write([]byte(b))
		return strconv.Itoa(int(h.Sum32() % 16))
	}
	if !strings.Contains(b, "'") {
		return "'" + b + "'"
	}
	return strconv.Quote(b)
}

// FuzzQueryCacheKey checks the result cache's canonical key on a small
// query family whose constant and variable names the fuzzer picks. A
// spelling that parses, written back as text, parses to the same query.
// Two spellings that share a key must have equal uncached answers; two
// whose constants differ in kind must never share a key; and a cached
// view asked both, in either order, answers as an uncached one.
func FuzzQueryCacheKey(f *testing.F) {
	f.Add(uint8(0), "x", "y", true, "5", "a", "b", false, "5")
	f.Add(uint8(0), "x", "y", true, "5", "a", "b", true, "5")
	f.Add(uint8(1), "x", "y", true, "1", "q", "r", true, "1")
	f.Add(uint8(2), "x", "y", true, "3", "y", "x", true, "3")
	f.Add(uint8(2), "x", "y", false, "5", "x", "y", true, "5")
	f.Add(uint8(3), "ab", "ba", false, "", "cd", "dc", false, "")
	f.Add(uint8(4), "k", "s", false, "a b", "k", "s", false, "a b")
	f.Add(uint8(5), "x", "y", true, "5", "y", "x", true, "5")
	f.Add(uint8(2), "k", "s", false, "x and y", "k", "s", false, `a where "b'`)

	var cached, ref *View
	for i, size := range []int{0, -1} {
		v, err := NewView(kindSpec(f), "", Options{QueryCacheSize: size})
		if err != nil {
			f.Fatal(err)
		}
		log := EditLog{
			Ins("S", MakeTuple(1, "5")), Ins("S", MakeTuple(5, "1")),
			Ins("S", MakeTuple(2, "a b")), Ins("S", MakeTuple(3, "")),
			Ins("T", MakeTuple("5", 1)), Ins("T", MakeTuple("1", 5)), Ins("T", MakeTuple("a b", 3)),
		}
		if _, err := v.ApplyEdits(context.Background(), log, DeleteProvenance); err != nil {
			f.Fatal(err)
		}
		if i == 0 {
			cached = v
		} else {
			ref = v
		}
	}

	f.Fuzz(func(t *testing.T, fam uint8, x1, y1 string, int1 bool, c1 string, x2, y2 string, int2 bool, c2 string) {
		form := keyFamily[int(fam)%len(keyFamily)]
		type spelling struct {
			text, key string
		}
		var sp [2]spelling
		for i, in := range []struct {
			x, y  string
			isInt bool
			c     string
		}{{x1, y1, int1, c1}, {x2, y2, int2, c2}} {
			text := fmt.Sprintf(form, fuzzVar(in.x), fuzzVar(in.y), fuzzConst(in.isInt, in.c))
			rule, err := ref.parseQuery(text)
			if err != nil {
				return // e.g. a head that names one variable twice
			}
			sp[i] = spelling{text, canonicalQueryKey(rule, false)}
			// The parsed query, written back as text, is the same query.
			again, err := ref.parseQuery(renderQuery(rule))
			if err != nil || canonicalQueryKey(again, false) != sp[i].key || again.String() != rule.String() {
				t.Fatalf("%q renders as %q, which parses to %v (%v)", text, renderQuery(rule), again, err)
			}
		}
		answer := func(v *View, q string) string {
			rows, err := v.Query(context.Background(), q, false)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			return fmt.Sprint(rows)
		}
		want := [2]string{answer(ref, sp[0].text), answer(ref, sp[1].text)}
		if sp[0].key == sp[1].key {
			if int1 != int2 {
				t.Fatalf("an integer and a string constant share a key:\n  %s\n  %s", sp[0].text, sp[1].text)
			}
			if want[0] != want[1] {
				t.Fatalf("spellings share a key but answer differently:\n  %s -> %s\n  %s -> %s",
					sp[0].text, want[0], sp[1].text, want[1])
			}
		}
		for _, i := range []int{0, 1, 0, 1} {
			if got := answer(cached, sp[i].text); got != want[i] {
				t.Fatalf("%q: cached view answers %s, uncached %s", sp[i].text, got, want[i])
			}
		}
	})
}
