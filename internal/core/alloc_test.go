package core

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/race"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/tgd"
)

// chainSpec builds a four-peer chain R0 → R1 → R2 → R3 whose first two
// mappings are existential, and the second Skolemizes over the labeled
// null the first produced: every deleted R0 tuple cascades through
// copied columns, Skolem terms, and Skolem terms over nulls.
func chainSpec(t testing.TB) *Spec {
	t.Helper()
	u := schema.NewUniverse()
	cols := map[string][]string{
		"R0": {"k", "a"},
		"R1": {"k", "a", "b"},
		"R2": {"k", "b", "c"},
		"R3": {"k", "c"},
	}
	for i, rel := range []string{"R0", "R1", "R2", "R3"} {
		p := schema.NewPeer(fmt.Sprintf("P%d", i))
		var cs []schema.Column
		for _, c := range cols[rel] {
			cs = append(cs, schema.Column{Name: c, Type: schema.TypeInt})
		}
		if _, err := p.AddRelation(rel, cs...); err != nil {
			t.Fatal(err)
		}
		if err := u.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := NewSpec(u, []*tgd.TGD{
		tgd.MustParse("m1: R0(k,a) -> exists b . R1(k,a,b)"),
		tgd.MustParse("m2: R1(k,a,b) -> exists c . R2(k,b,c)"),
		tgd.MustParse("m3: R2(k,b,c) -> R3(k,c)"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCascadeAllocsBounded pins the provenance-driven deletion cascade's
// allocation budget per deleted provenance row. The cascade carries each
// deleted tuple beside its key, matches candidate provenance rows without
// instantiating them, and instantiates targets and their Skolem terms in
// reused buffers, so what remains per row is the deleted target's key
// and amortized worklist growth.
func TestCascadeAllocsBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const n = 200 // deleted base tuples
	ctx := context.Background()
	spec := chainSpec(t)
	// AllocsPerRun warms up with one extra invocation, so prepare a fresh
	// view and deletion delta (outside the measurement) per invocation.
	var views []*View
	var dels []storage.DeltaSet
	for i := 0; i < 2; i++ {
		v, err := NewView(spec, "", Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		var ins EditLog
		dl := storage.DeltaSet{}
		for k := 0; k <= n; k++ {
			tup := MakeTuple(k, k%7)
			ins = append(ins, Ins("R0", tup))
			dl.Delete("R0", tup)
		}
		if _, err := v.ApplyEdits(ctx, ins, DeleteProvenance); err != nil {
			t.Fatal(err)
		}
		// One deletion first builds the provenance tables' probe indexes,
		// which a live view keeps from pass to pass.
		if _, err := v.ApplyEdits(ctx, EditLog{Del("R0", MakeTuple(n, n%7))}, DeleteProvenance); err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
		dels = append(dels, dl)
	}
	var stats ApplyStats
	var err error
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		stats, err = views[next].ApplyBase(ctx, dels[next], nil, DeleteProvenance)
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DelL != n || stats.Checked != 0 {
		t.Fatalf("deleted %d base tuples with %d derivability checks; want %d and 0", stats.DelL, stats.Checked, n)
	}
	if got := views[1].Instance("R3").Len(); got != 0 {
		t.Fatalf("R3 keeps %d tuples after its whole support was deleted", got)
	}
	perRow := allocs / float64(stats.ProvRowsDeleted)
	t.Logf("%.0f allocations over %d deleted provenance rows: %.2f per row", allocs, stats.ProvRowsDeleted, perRow)
	if perRow > 2 {
		t.Errorf("deletion cascade allocates %.2f per deleted provenance row (%v total / %d rows), want <= 2",
			perRow, allocs, stats.ProvRowsDeleted)
	}
}

// TestNetEffectAllocsPerEdit pins NetEffect's allocation budget per
// first-seen edit. Each such edit converts its encoded key to a string
// once, for both membership probes and both scan maps, and clones its
// tuple; what remains is the state record, the delta row and amortized
// map growth. The relation is wide enough that its keys do not fit the
// runtime's small-string stack buffer.
func TestNetEffectAllocsPerEdit(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const n = 512 // first-seen edits
	u := schema.NewUniverse()
	p := schema.NewPeer("P")
	if _, err := p.AddRelation("W",
		schema.Column{Name: "a", Type: schema.TypeInt},
		schema.Column{Name: "b", Type: schema.TypeInt},
		schema.Column{Name: "c", Type: schema.TypeInt},
		schema.Column{Name: "d", Type: schema.TypeInt}); err != nil {
		t.Fatal(err)
	}
	if err := u.AddPeer(p); err != nil {
		t.Fatal(err)
	}
	spec, err := NewSpec(u, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(spec, "", Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var log EditLog
	for k := 0; k < n; k++ {
		log = append(log, Ins("W", MakeTuple(k, k+1, k+2, k+3)))
	}
	var dl storage.DeltaSet
	allocs := testing.AllocsPerRun(4, func() {
		dl, _, err = NetEffect(log, v.db)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dl["W"].InsRows()); got != n {
		t.Fatalf("net effect inserts %d local tuples, want %d", got, n)
	}
	perEdit := allocs / n
	t.Logf("%.0f allocations over %d first-seen edits: %.2f per edit", allocs, n, perEdit)
	if perEdit > 3.5 {
		t.Errorf("NetEffect allocates %.2f per first-seen edit, want <= 3.5", perEdit)
	}
}

// TestParseQueryAllocs pins the query parser's allocations on the
// repository benchmark's two query shapes, a point probe and a join.
// Every query that misses the result cache parses, so the parser's
// cost lands in query latency wherever probes miss. The bounds are the
// counts of the substring-splitting parser the scanner replaced.
func TestParseQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	v, err := NewView(kindSpec(t), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q   string
		max float64
	}{
		{"probe(x0,x1) :- S(5, x0)", 13},
		{"join(s) :- S(a0,s), S(b0,s)", 17},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() { _, err = v.parseQuery(c.q) })
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		t.Logf("%q: %.0f allocations", c.q, allocs)
		if allocs > c.max {
			t.Errorf("%q: parsing allocates %.0f times, want <= %.0f", c.q, allocs, c.max)
		}
	}
}
