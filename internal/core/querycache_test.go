package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"orchestra/internal/engine"
	"orchestra/internal/race"
	"orchestra/internal/schema"
)

func cacheBackends() []engine.Backend {
	return []engine.Backend{engine.BackendIndexed, engine.BackendHash}
}

func TestQueryCacheHitAndPreciseInvalidation(t *testing.T) {
	for _, be := range cacheBackends() {
		t.Run(be.String(), func(t *testing.T) {
			v := loadExample3(t, paperSpec(t, nil), Options{Backend: be})
			qB := "ans(i,n) :- B(i,n)"
			// G is a source relation no mapping derives into, so a B write
			// must leave qG's cache entry valid.
			qG := "ansg(i,c,n) :- G(i,c,n)"

			first, err := v.Query(context.Background(), qB, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.Query(context.Background(), qG, false); err != nil {
				t.Fatal(err)
			}
			again, err := v.Query(context.Background(), qB, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != len(first) {
				t.Fatalf("cached result %v != fresh %v", again, first)
			}
			hits, misses, _ := v.QueryCacheStats()
			if hits != 1 || misses != 2 {
				t.Fatalf("after warmup: hits=%d misses=%d, want 1/2", hits, misses)
			}

			// A pass touching B must invalidate qB but keep qG cached.
			if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("B", MakeTuple(9, 9))}, DeleteProvenance); err != nil {
				t.Fatal(err)
			}
			afterB, err := v.Query(context.Background(), qB, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(afterB) != len(first)+1 {
				t.Fatalf("stale result served after write: %v", afterB)
			}
			if _, err := v.Query(context.Background(), qG, false); err != nil {
				t.Fatal(err)
			}
			hits2, misses2, _ := v.QueryCacheStats()
			if misses2 != misses+1 {
				t.Fatalf("only qB should have missed after the B write: misses %d -> %d", misses, misses2)
			}
			if hits2 != hits+1 {
				t.Fatalf("qG should still be cached after the B write: hits %d -> %d", hits, hits2)
			}
			// Steady state: both fully cached again.
			if _, err := v.Query(context.Background(), qB, false); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Query(context.Background(), qG, false); err != nil {
				t.Fatal(err)
			}
			hits3, _, _ := v.QueryCacheStats()
			if hits3 != hits2+2 {
				t.Fatalf("steady state not cached: hits %d -> %d", hits2, hits3)
			}
		})
	}
}

func TestQueryCacheAlphaEquivalence(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	if _, err := v.Query(context.Background(), "ans(x,y) :- U(x,y)", false); err != nil {
		t.Fatal(err)
	}
	// Same query, renamed variables: must hit the same entry.
	if _, err := v.Query(context.Background(), "ans(a,b) :- U(a,b)", false); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := v.QueryCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("α-renamed query did not share the entry: hits=%d misses=%d", hits, misses)
	}
	// includeNulls is part of the key, not a hit.
	if _, err := v.Query(context.Background(), "ans(a,b) :- U(a,b)", true); err != nil {
		t.Fatal(err)
	}
	if h, m, _ := v.QueryCacheStats(); h != 1 || m != 2 {
		t.Fatalf("includeNulls variant must be a distinct entry: hits=%d misses=%d", h, m)
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{QueryCacheSize: -1})
	for i := 0; i < 3; i++ {
		if _, err := v.Query(context.Background(), "ans(x,y) :- U(x,y)", false); err != nil {
			t.Fatal(err)
		}
	}
	if h, m, e := v.QueryCacheStats(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("disabled cache recorded activity: %d/%d/%d", h, m, e)
	}
}

func TestQueryCacheCapacityEviction(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{QueryCacheSize: 2})
	queries := []string{
		"a1(i,n) :- B(i,n)",
		"a2(n,c) :- U(n,c)",
		"a3(i) :- B(i,n), U(n,c)",
	}
	for _, q := range queries {
		if _, err := v.Query(context.Background(), q, false); err != nil {
			t.Fatal(err)
		}
	}
	_, _, evictions := v.QueryCacheStats()
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (cap 2, 3 entries)", evictions)
	}
	// The oldest entry (a1) was evicted; re-running it misses.
	if _, err := v.Query(context.Background(), queries[0], false); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := v.QueryCacheStats(); hits != 0 {
		t.Fatalf("evicted entry served a hit")
	}
}

func TestQueryErrorPositions(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	cases := []struct {
		q       string
		pos     int
		msgPart string
	}{
		{"ans(x,y)", 0, "missing ':-'"},
		{"ans(x,x) :- U(x,y)", 0, "repeats variable"},
		{"ans(x,y) :- Zed(x,y)", 12, "unknown relation"},
		{"ans(x,y) :- U(x,y) where x !!", 25, "selection"},
		// The atom Zq(k) starts at 20; the variable Zq at 15 is no
		// relation.
		{"ans(k) :- U(k, Zq), Zq(k)", 20, "unknown relation"},
	}
	for _, c := range cases {
		_, err := v.Query(context.Background(), c.q, false)
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("%q: error %v is not a *QueryError", c.q, err)
		}
		if qe.Pos != c.pos {
			t.Errorf("%q: Pos = %d, want %d", c.q, qe.Pos, c.pos)
		}
		if !strings.Contains(qe.Msg, c.msgPart) {
			t.Errorf("%q: Msg %q missing %q", c.q, qe.Msg, c.msgPart)
		}
		if qe.Query != c.q {
			t.Errorf("%q: Query field = %q", c.q, qe.Query)
		}
		if !strings.Contains(qe.Detail(), "^") {
			t.Errorf("%q: Detail() has no caret:\n%s", c.q, qe.Detail())
		}
	}
}

func TestExplainQueryView(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	out, err := v.ExplainQuery(context.Background(), "ans(i) :- G(i,c,n), B(i,n) where i >= 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cost-based", "where i >= 1", "estimated results"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	// Explain must not leave the workspace table behind.
	if v.db.Table("q$ans") != nil {
		t.Fatal("explain leaked q$ans workspace")
	}
	if _, err := v.ExplainQuery(context.Background(), "nope"); err == nil {
		t.Fatal("bad query accepted by explain")
	}
}

// kindSpec is one peer with S(k int, s string) and T(s string, k int):
// string columns whose values can spell integers, in both column orders
// so a join can carry a value of either kind.
func kindSpec(t testing.TB) *Spec {
	t.Helper()
	u := schema.NewUniverse()
	p := schema.NewPeer("P")
	if _, err := p.AddRelation("S",
		schema.Column{Name: "k", Type: schema.TypeInt},
		schema.Column{Name: "s", Type: schema.TypeString}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRelation("T",
		schema.Column{Name: "s", Type: schema.TypeString},
		schema.Column{Name: "k", Type: schema.TypeInt}); err != nil {
		t.Fatal(err)
	}
	if err := u.AddPeer(p); err != nil {
		t.Fatal(err)
	}
	spec, err := NewSpec(u, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// sameAnswers asks each query of qs of the cached view v and of ref, a
// view over the same state with the cache off, and fails on the first
// answer that differs.
func sameAnswers(t *testing.T, v, ref *View, nulls bool, qs ...string) {
	t.Helper()
	for _, q := range qs {
		got, err := v.Query(context.Background(), q, nulls)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(context.Background(), q, nulls)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%q nulls=%v: cached view answers %v, uncached %v", q, nulls, got, want)
		}
	}
}

// checkAliases asserts the alias index's invariants: it is no larger
// than the entry map, which is no larger than the capacity, and every
// alias reaches a live entry that names it back.
func checkAliases(t *testing.T, c *queryCache) {
	t.Helper()
	if len(c.aliases) > len(c.entries) || len(c.entries) > c.cap {
		t.Fatalf("cache holds %d aliases over %d entries at capacity %d", len(c.aliases), len(c.entries), c.cap)
	}
	for tk, el := range c.aliases {
		e := el.Value.(*cacheEntry)
		if c.entries[e.key] != el || e.alias != tk {
			t.Fatalf("alias %q reaches an entry that is gone or does not name it back", tk.text)
		}
	}
}

// TestQueryCacheKeyConstantKinds: 5 and "5" render alike, but a query
// over one must never be answered with the other's result.
func TestQueryCacheKeyConstantKinds(t *testing.T) {
	var views [2]*View
	for i, size := range []int{0, -1} {
		v, err := NewView(kindSpec(t), "", Options{QueryCacheSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("S", MakeTuple(1, "5"))}, DeleteProvenance); err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	sameAnswers(t, views[0], views[1], false, `ans(k) :- S(k, 5)`, `ans(k) :- S(k, "5")`, `ans(k) :- S(k, 5)`)
	if h, m, _ := views[0].QueryCacheStats(); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2: the two constants must be two entries", h, m)
	}
}

// TestQueryCacheKeyFilterVariables: a where clause names the query's own
// variables, so two spellings that α-rename to one body but filter
// different columns must not share an entry.
func TestQueryCacheKeyFilterVariables(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	ref := loadExample3(t, paperSpec(t, nil), Options{QueryCacheSize: -1})
	sameAnswers(t, v, ref, true,
		"ans(x,y) :- U(x,y) where x >= 3",
		"ans(y,x) :- U(y,x) where x >= 3",
		"ans(x,y) :- U(x,y) where x >= 3")
	if h, m, _ := v.QueryCacheStats(); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", h, m)
	}
}

// TestQueryCacheTextRoute drives the alias index against the canonical
// route: every answer equals an uncached view's, the counters stay one
// hit or one miss per query, and the index stays inside the capacity.
func TestQueryCacheTextRoute(t *testing.T) {
	ctx := context.Background()
	t.Run("alpha-variants-alternate", func(t *testing.T) {
		v := loadExample3(t, paperSpec(t, nil), Options{})
		ref := loadExample3(t, paperSpec(t, nil), Options{QueryCacheSize: -1})
		for i := 0; i < 3; i++ {
			sameAnswers(t, v, ref, false, "ans(x,y) :- U(x,y)", "ans(a,b) :- U(a,b)")
			checkAliases(t, v.qcache)
		}
		if h, m, _ := v.QueryCacheStats(); h != 5 || m != 1 {
			t.Fatalf("hits=%d misses=%d, want 5/1", h, m)
		}
		if len(v.qcache.entries) != 1 || len(v.qcache.aliases) != 1 {
			t.Fatalf("%d entries, %d aliases; want one of each", len(v.qcache.entries), len(v.qcache.aliases))
		}
	})
	t.Run("include-nulls-apart", func(t *testing.T) {
		v := loadExample3(t, paperSpec(t, nil), Options{})
		ref := loadExample3(t, paperSpec(t, nil), Options{QueryCacheSize: -1})
		for i := 0; i < 2; i++ {
			for _, nulls := range []bool{false, true} {
				sameAnswers(t, v, ref, nulls, "ans(n,c) :- U(n,c)")
				checkAliases(t, v.qcache)
			}
		}
		if h, m, _ := v.QueryCacheStats(); h != 2 || m != 2 {
			t.Fatalf("hits=%d misses=%d, want 2/2", h, m)
		}
		if len(v.qcache.aliases) != 2 {
			t.Fatalf("%d aliases, want 2", len(v.qcache.aliases))
		}
	})
	t.Run("capacity-pressure", func(t *testing.T) {
		v := loadExample3(t, paperSpec(t, nil), Options{QueryCacheSize: 2})
		ref := loadExample3(t, paperSpec(t, nil), Options{QueryCacheSize: -1})
		qs := []string{
			"a1(i,n) :- B(i,n)",
			"a2(n,c) :- U(n,c)",
			"a3(i) :- B(i,n), U(n,c)",
			"a4(i,c,n) :- G(i,c,n)",
			"a5(x,y) :- B(x,y)", // α-variant of a1
		}
		for i := 0; i < 20; i++ {
			sameAnswers(t, v, ref, i%3 == 0, qs[i*i%len(qs)])
			checkAliases(t, v.qcache)
		}
		h, m, e := v.QueryCacheStats()
		if h+m != 20 || e == 0 {
			t.Fatalf("hits=%d misses=%d evictions=%d; want 20 lookups and some evictions", h, m, e)
		}
	})
	t.Run("stale-alias", func(t *testing.T) {
		v := loadExample3(t, paperSpec(t, nil), Options{})
		ref := loadExample3(t, paperSpec(t, nil), Options{QueryCacheSize: -1})
		q := "ans(i,n) :- B(i,n)"
		sameAnswers(t, v, ref, false, q, q)
		h0, m0, e0 := v.QueryCacheStats()
		for _, view := range []*View{v, ref} {
			if _, err := view.ApplyEdits(ctx, EditLog{Ins("B", MakeTuple(9, 9))}, DeleteProvenance); err != nil {
				t.Fatal(err)
			}
		}
		sameAnswers(t, v, ref, false, q)
		checkAliases(t, v.qcache)
		if h, m, e := v.QueryCacheStats(); h != h0 || m != m0+1 || e != e0+1 {
			t.Fatalf("stale alias: hits %d->%d misses %d->%d evictions %d->%d; want +0/+1/+1", h0, h, m0, m, e0, e)
		}
	})
	t.Run("evolve-between", func(t *testing.T) {
		full := paperSpec(t, nil)
		v := loadExample3(t, full, Options{})
		ref := loadExample3(t, full, Options{QueryCacheSize: -1})
		q := "ans(i,n) :- B(i,n)"
		before, err := v.Query(ctx, q, false)
		if err != nil {
			t.Fatal(err)
		}
		// m1 (G → B) is B's only source besides its own base tuple.
		reduced := specWithMappings(t, full, "m2", "m3", "m4")
		for _, view := range []*View{v, ref} {
			if _, err := view.Evolve(ctx, reduced); err != nil {
				t.Fatal(err)
			}
		}
		sameAnswers(t, v, ref, false, q)
		after, _ := v.Query(ctx, q, false)
		if len(after) == len(before) {
			t.Fatalf("removing m1 left B's answer at %d rows; the case checks nothing", len(after))
		}
		checkAliases(t, v.qcache)
	})
}

// TestQueryHitAllocs pins a repeated query text to the returned slice:
// no parse, no canonical key, no other allocation.
func TestQueryHitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	ctx := context.Background()
	v := loadExample3(t, paperSpec(t, nil), Options{})
	q := "ans(i,n) :- B(i,n)"
	for i := 0; i < 2; i++ {
		if _, err := v.Query(ctx, q, true); err != nil {
			t.Fatal(err)
		}
	}
	h0, _, _ := v.QueryCacheStats()
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = v.Query(ctx, q, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if h, m, _ := v.QueryCacheStats(); h-h0 != 101 || m != 1 {
		t.Fatalf("measured queries were not all hits: hits +%d, misses %d", h-h0, m)
	}
	if allocs > 1 {
		t.Errorf("a repeated query text allocates %v per hit, want <= 1", allocs)
	}
}
