package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"orchestra/internal/engine"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
	"orchestra/internal/value"
)

// paperSpec builds the running example of the paper (Examples 1–7):
// peers PGUS{G}, PBioSQL{B}, PuBio{U} with mappings m1–m4.
func paperSpec(t *testing.T, policies map[string]*trust.Policy) *Spec {
	t.Helper()
	u := schema.NewUniverse()
	gus := schema.NewPeer("PGUS")
	if _, err := gus.AddRelation("G",
		schema.Column{Name: "id", Type: schema.TypeInt},
		schema.Column{Name: "can", Type: schema.TypeInt},
		schema.Column{Name: "nam", Type: schema.TypeInt}); err != nil {
		t.Fatal(err)
	}
	bio := schema.NewPeer("PBioSQL")
	if _, err := bio.AddRelation("B",
		schema.Column{Name: "id", Type: schema.TypeInt},
		schema.Column{Name: "nam", Type: schema.TypeInt}); err != nil {
		t.Fatal(err)
	}
	ubio := schema.NewPeer("PuBio")
	if _, err := ubio.AddRelation("U",
		schema.Column{Name: "nam", Type: schema.TypeInt},
		schema.Column{Name: "can", Type: schema.TypeInt}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*schema.Peer{gus, bio, ubio} {
		if err := u.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	mappings := []*tgd.TGD{
		tgd.MustParse("m1: G(i,c,n) -> B(i,n)"),
		tgd.MustParse("m2: G(i,c,n) -> U(n,c)"),
		tgd.MustParse("m3: B(i,n) -> exists c . U(n,c)"),
		tgd.MustParse("m4: B(i,c), U(n,c) -> B(i,n)"),
	}
	spec, err := NewSpec(u, mappings, policies)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// example3Logs is the base data of Example 3.
func example3Logs() map[string]EditLog {
	return map[string]EditLog{
		"PGUS":    {Ins("G", MakeTuple(1, 2, 3)), Ins("G", MakeTuple(3, 5, 2))},
		"PBioSQL": {Ins("B", MakeTuple(3, 5))},
		"PuBio":   {Ins("U", MakeTuple(2, 5))},
	}
}

// loadExample3 builds a global view and applies Example 3's edit logs.
func loadExample3(t *testing.T, spec *Spec, opts Options) *View {
	t.Helper()
	v, err := NewView(spec, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range []string{"PGUS", "PBioSQL", "PuBio"} {
		if _, err := v.ApplyEdits(context.Background(), example3Logs()[peer], DeleteProvenance); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// canonicalRows renders a table's rows with labeled nulls replaced by
// their Skolem-term structure, so instances can be compared across views
// with different interning orders.
func canonicalRows(v *View, tableName string) []string {
	tbl := v.db.Table(tableName)
	if tbl == nil {
		return nil
	}
	var out []string
	tbl.Each(func(row value.Tuple) bool {
		parts := make([]string, len(row))
		for i, val := range row {
			parts[i] = v.sk.Describe(val)
		}
		out = append(out, fmt.Sprintf("(%v)", parts))
		return true
	})
	sort.Strings(out)
	return out
}

// viewsEqual compares every table of two views modulo Skolem renaming.
func viewsEqual(t *testing.T, a, b *View, context string) {
	t.Helper()
	an, bn := a.db.Names(), b.db.Names()
	if len(an) != len(bn) {
		t.Fatalf("%s: table sets differ: %v vs %v", context, an, bn)
	}
	for _, name := range an {
		ra, rb := canonicalRows(a, name), canonicalRows(b, name)
		if len(ra) != len(rb) {
			t.Fatalf("%s: %s: %d vs %d rows\nA: %v\nB: %v", context, name, len(ra), len(rb), ra, rb)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: %s row %d: %q vs %q", context, name, i, ra[i], rb[i])
			}
		}
	}
}

func hasRow(tbl *storage.Table, t value.Tuple) bool { return tbl != nil && tbl.Contains(t) }

// OutRef is the provenance-graph node of a user relation's instance
// tuple.
func OutRef(rel string, t value.Tuple) provenance.Ref {
	return provenance.NewRef(OutputRel(rel), t)
}

// BaseRef is the provenance-graph node (token) of a base contribution.
func BaseRef(rel string, t value.Tuple) provenance.Ref {
	return provenance.NewRef(LocalRel(rel), t)
}

func TestExample3Instances(t *testing.T) {
	for _, be := range []engine.Backend{engine.BackendIndexed, engine.BackendHash} {
		t.Run(be.String(), func(t *testing.T) {
			v := loadExample3(t, paperSpec(t, nil), Options{Backend: be})

			g := v.Instance("G")
			if g.Len() != 2 || !hasRow(g, MakeTuple(1, 2, 3)) || !hasRow(g, MakeTuple(3, 5, 2)) {
				t.Fatalf("G:\n%s", v.db.Dump(OutputRel("G")))
			}
			b := v.Instance("B")
			for _, w := range [][2]int{{3, 5}, {3, 2}, {1, 3}, {3, 3}} {
				if !hasRow(b, MakeTuple(w[0], w[1])) {
					t.Fatalf("B missing (%d,%d):\n%s", w[0], w[1], v.db.Dump(OutputRel("B")))
				}
			}
			if b.Len() != 4 {
				t.Fatalf("B has %d rows, want 4:\n%s", b.Len(), v.db.Dump(OutputRel("B")))
			}
			uTbl := v.Instance("U")
			// U = {(2,5), (3,2)} plus three null-carrying tuples.
			if uTbl.Len() != 5 {
				t.Fatalf("U has %d rows, want 5:\n%s", uTbl.Len(), v.db.Dump(OutputRel("U")))
			}
			if !hasRow(uTbl, MakeTuple(2, 5)) || !hasRow(uTbl, MakeTuple(3, 2)) {
				t.Fatalf("U missing certain rows:\n%s", v.db.Dump(OutputRel("U")))
			}
			nulls := 0
			uTbl.Each(func(row value.Tuple) bool {
				if row.HasNull() {
					nulls++
				}
				return true
			})
			if nulls != 3 {
				t.Fatalf("U has %d null rows, want 3", nulls)
			}
		})
	}
}

func TestExample3CertainAnswers(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})

	// Query 1: ans(x,y) :- U(x,z), U(y,z) → {(2,2),(3,3),(5,5)}.
	got, err := v.Query(context.Background(), "ans(x,y) :- U(x,z), U(y,z)", false)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{2, 2}, {3, 3}, {5, 5}}
	if len(got) != len(want) {
		t.Fatalf("query1 = %v", got)
	}
	for i, w := range want {
		if !got[i].Equal(MakeTuple(w[0], w[1])) {
			t.Fatalf("query1 = %v, want %v", got, want)
		}
	}

	// Query 2: ans(x,y) :- U(x,y) → {(2,5),(3,2)} (nulls dropped).
	got, err = v.Query(context.Background(), "ans(x,y) :- U(x,y)", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Equal(MakeTuple(2, 5)) || !got[1].Equal(MakeTuple(3, 2)) {
		t.Fatalf("query2 = %v", got)
	}

	// Superset option keeps the null tuples.
	got, err = v.Query(context.Background(), "ans(x,y) :- U(x,y)", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("superset query = %v", got)
	}
}

func TestExample3CurationDeletion(t *testing.T) {
	// "if the edit log ∆B would have also contained the curation deletion
	// (− 3 2) then B would not only be missing (3,2), but also (3,3); and
	// U would be missing (2,c2)."
	for _, strategy := range []DeletionStrategy{DeleteProvenance, DeleteDRed, DeleteRecompute} {
		t.Run(strategy.String(), func(t *testing.T) {
			v := loadExample3(t, paperSpec(t, nil), Options{})
			if _, err := v.ApplyEdits(context.Background(), EditLog{Del("B", MakeTuple(3, 2))}, strategy); err != nil {
				t.Fatal(err)
			}
			b := v.Instance("B")
			if hasRow(b, MakeTuple(3, 2)) || hasRow(b, MakeTuple(3, 3)) {
				t.Fatalf("B still has rejected/derived rows:\n%s", v.db.Dump(OutputRel("B")))
			}
			if b.Len() != 2 {
				t.Fatalf("B has %d rows, want 2:\n%s", b.Len(), v.db.Dump(OutputRel("B")))
			}
			u := v.Instance("U")
			// (2,c2) — the m3 image of B(3,2) — must be gone; (3,c3)
			// survives via B(1,3).
			if u.Len() != 4 {
				t.Fatalf("U has %d rows, want 4:\n%s", u.Len(), v.db.Dump(OutputRel("U")))
			}
			// Compare against full recomputation for exactness.
			ref := loadExample3(t, paperSpec(t, nil), Options{})
			if _, err := ref.ApplyEdits(context.Background(), EditLog{Del("B", MakeTuple(3, 2))}, DeleteRecompute); err != nil {
				t.Fatal(err)
			}
			viewsEqual(t, v, ref, strategy.String())
		})
	}
}

func TestRejectionThenUnrejection(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	// Reject imported B(3,2).
	if _, err := v.ApplyEdits(context.Background(), EditLog{Del("B", MakeTuple(3, 2))}, DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	if hasRow(v.Instance("B"), MakeTuple(3, 2)) {
		t.Fatal("rejected tuple still present")
	}
	if !hasRow(v.RejectTable("B"), MakeTuple(3, 2)) {
		t.Fatal("rejection not recorded")
	}
	// Re-inserting it locally withdraws the rejection (+t un-rejects).
	if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("B", MakeTuple(3, 2))}, DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	if !hasRow(v.Instance("B"), MakeTuple(3, 2)) {
		t.Fatal("un-rejected tuple absent")
	}
	if hasRow(v.RejectTable("B"), MakeTuple(3, 2)) {
		t.Fatal("rejection not withdrawn")
	}
	// Downstream effects are restored too (B(3,3) via m4).
	if !hasRow(v.Instance("B"), MakeTuple(3, 3)) {
		t.Fatalf("downstream tuple not restored:\n%s", v.db.Dump(OutputRel("B")))
	}
	ref := loadExample3(t, paperSpec(t, nil), Options{})
	if _, err := ref.ApplyEdits(context.Background(), EditLog{Del("B", MakeTuple(3, 2)), Ins("B", MakeTuple(3, 2))}, DeleteRecompute); err != nil {
		t.Fatal(err)
	}
	// Note: the single-log (+ after −) net effect differs from the
	// two-log sequence: in one log, − then + cancels into a plain local
	// insert. Both must leave B(3,2) present; compare instance contents.
	if !hasRow(ref.Instance("B"), MakeTuple(3, 2)) {
		t.Fatal("reference missing B(3,2)")
	}
}

func TestExample4TrustConditions(t *testing.T) {
	// PBioSQL distrusts B-tuples from m1 with n ≥ 3 and from m4 with
	// n ≠ 2. Consequently B(1,3) and B(3,3) are rejected, and U(3,c3)
	// never appears in PBioSQL's view.
	pol := trust.NewPolicy("PBioSQL")
	pol.DistrustMapping("m1", trust.MustParsePred("n >= 3"))
	pol.DistrustMapping("m4", trust.MustParsePred("n != 2"))
	spec := paperSpec(t, map[string]*trust.Policy{"PBioSQL": pol})

	v, err := NewView(spec, "PBioSQL", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range []string{"PGUS", "PBioSQL", "PuBio"} {
		if _, err := v.ApplyEdits(context.Background(), example3Logs()[peer], DeleteProvenance); err != nil {
			t.Fatal(err)
		}
	}
	b := v.Instance("B")
	if hasRow(b, MakeTuple(1, 3)) {
		t.Fatal("B(1,3) accepted despite m1 distrust")
	}
	if hasRow(b, MakeTuple(3, 3)) {
		t.Fatal("B(3,3) accepted despite m4 distrust")
	}
	if !hasRow(b, MakeTuple(3, 2)) || !hasRow(b, MakeTuple(3, 5)) {
		t.Fatalf("trusted rows missing:\n%s", v.db.Dump(OutputRel("B")))
	}
	// U(3,·) can only come from m2's image of G(1,2,3) now — the m3 image
	// of B(1,3) is gone.
	u := v.Instance("U")
	nullsWith3 := 0
	u.Each(func(row value.Tuple) bool {
		if row[0] == value.Int(3) && row[1].IsNull() {
			nullsWith3++
		}
		return true
	})
	if nullsWith3 != 0 {
		t.Fatalf("U(3,c3) present despite trust conditions:\n%s", v.db.Dump(OutputRel("U")))
	}
}

func TestTokenLevelTrust(t *testing.T) {
	// Example 7's flavor at token level: PBioSQL distrusts PuBio's base
	// data entirely; U(2,5) is stored in Rℓ but the (ℓR) rule does not
	// accept it, so B(3,2) loses its m4 derivation but keeps the m1 one.
	pol := trust.NewPolicy("PBioSQL")
	pol.DistrustPeer("PuBio")
	spec := paperSpec(t, map[string]*trust.Policy{"PBioSQL": pol})
	v, err := NewView(spec, "PBioSQL", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range []string{"PGUS", "PBioSQL", "PuBio"} {
		if _, err := v.ApplyEdits(context.Background(), example3Logs()[peer], DeleteProvenance); err != nil {
			t.Fatal(err)
		}
	}
	if n := v.DB().Table(provRelOf(locMapID("U"))).Len(); n != 0 {
		t.Fatalf("distrusted base data has %d (ℓR) provenance rows", n)
	}
	if !hasRow(v.Instance("B"), MakeTuple(3, 2)) {
		t.Fatal("B(3,2) lost despite m1 derivation")
	}
}

func TestExample6ProvenanceThroughView(t *testing.T) {
	// End-to-end check that view-level provenance matches Example 6 after
	// internal bookkeeping mappings are spliced out. Uses only mappings
	// m1, m3, m4 (as Example 6 does) to keep expressions minimal.
	u := schema.NewUniverse()
	gus := schema.NewPeer("PGUS")
	gus.AddRelation("G", schema.Column{Name: "id"}, schema.Column{Name: "can"}, schema.Column{Name: "nam"})
	bio := schema.NewPeer("PBioSQL")
	bio.AddRelation("B", schema.Column{Name: "id"}, schema.Column{Name: "nam"})
	ubio := schema.NewPeer("PuBio")
	ubio.AddRelation("U", schema.Column{Name: "nam"}, schema.Column{Name: "can"})
	for _, p := range []*schema.Peer{gus, bio, ubio} {
		if err := u.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := NewSpec(u, []*tgd.TGD{
		tgd.MustParse("m1: G(i,c,n) -> B(i,n)"),
		tgd.MustParse("m3: B(i,n) -> exists c . U(n,c)"),
		tgd.MustParse("m4: B(i,c), U(n,c) -> B(i,n)"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(spec, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("B", MakeTuple(3, 5))}, DeleteProvenance); err != nil { // p1
		t.Fatal(err)
	}
	if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("U", MakeTuple(2, 5))}, DeleteProvenance); err != nil { // p2
		t.Fatal(err)
	}
	if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("G", MakeTuple(3, 5, 2))}, DeleteProvenance); err != nil { // p3
		t.Fatal(err)
	}
	expr := v.ProvOf("B", MakeTuple(3, 2))
	if got := expr.String(); got != "m1(G(3, 5, 2)) + m4(B(3, 5)·U(2, 5))" {
		t.Fatalf("Pv(B(3,2)) = %q", got)
	}
}

func TestIncrementalInsertionMatchesRecompute(t *testing.T) {
	// Apply Example 3 incrementally in three exchanges, then compare with
	// a reference view that loads everything and recomputes once.
	for _, be := range []engine.Backend{engine.BackendIndexed, engine.BackendHash} {
		t.Run(be.String(), func(t *testing.T) {
			inc := loadExample3(t, paperSpec(t, nil), Options{Backend: be})

			ref, err := NewView(paperSpec(t, nil), "", Options{Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			dl := storage.DeltaSet{}
			dl.Insert("G", MakeTuple(1, 2, 3))
			dl.Insert("G", MakeTuple(3, 5, 2))
			dl.Insert("B", MakeTuple(3, 5))
			dl.Insert("U", MakeTuple(2, 5))
			if _, err := ref.ApplyBase(context.Background(), dl, storage.DeltaSet{}, DeleteRecompute); err != nil {
				t.Fatal(err)
			}
			viewsEqual(t, inc, ref, be.String())
		})
	}
}

func TestDeletionStrategiesAgreeRandomized(t *testing.T) {
	// Property test (DESIGN.md §6): random edit sequences applied with
	// DeleteProvenance, DeleteDRed and DeleteRecompute all converge to
	// the same consistent state (Def. 3.1).
	type op struct {
		peer string
		log  EditLog
	}
	rnd := newRand(99)
	tupleG := func() value.Tuple {
		return MakeTuple(rnd.Intn(4), rnd.Intn(4), rnd.Intn(4))
	}
	tupleB := func() value.Tuple { return MakeTuple(rnd.Intn(4), rnd.Intn(4)) }
	tupleU := func() value.Tuple { return MakeTuple(rnd.Intn(4), rnd.Intn(4)) }

	for trial := 0; trial < 12; trial++ {
		var ops []op
		nOps := 3 + rnd.Intn(5)
		for i := 0; i < nOps; i++ {
			var log EditLog
			peer, rel := "PGUS", "G"
			switch rnd.Intn(3) {
			case 1:
				peer, rel = "PBioSQL", "B"
			case 2:
				peer, rel = "PuBio", "U"
			}
			mk := map[string]func() value.Tuple{"G": tupleG, "B": tupleB, "U": tupleU}[rel]
			for j := 0; j < 1+rnd.Intn(4); j++ {
				if rnd.Intn(3) == 0 {
					log = append(log, Del(rel, mk()))
				} else {
					log = append(log, Ins(rel, mk()))
				}
			}
			ops = append(ops, op{peer, log})
		}

		run := func(strategy DeletionStrategy) *View {
			v, err := NewView(paperSpec(t, nil), "", Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range ops {
				if _, err := v.ApplyEdits(context.Background(), o.log, strategy); err != nil {
					t.Fatalf("trial %d (%s): %v", trial, strategy, err)
				}
			}
			return v
		}
		prov := run(DeleteProvenance)
		dred := run(DeleteDRed)
		reco := run(DeleteRecompute)
		viewsEqual(t, prov, reco, fmt.Sprintf("trial %d provenance-vs-recompute", trial))
		viewsEqual(t, dred, reco, fmt.Sprintf("trial %d dred-vs-recompute", trial))
	}
}

// TestCDSSOrchestration drives §2's operating model on the embedded
// path: peers publish to a shared bus, and each peer's view imports at
// its own pace from its own cursor.
func TestCDSSOrchestration(t *testing.T) {
	ctx := context.Background()
	spec := paperSpec(t, nil)
	bus := NewMemoryBus()
	for _, peer := range []string{"PGUS", "PBioSQL", "PuBio"} {
		if err := PublishTo(ctx, bus, spec, peer, example3Logs()[peer]); err != nil {
			t.Fatal(err)
		}
	}
	// pending = horizon − the view's cursor.
	pending := func(c Cursor) int {
		h, err := bus.Horizon(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return h.Total() - c.Total()
	}
	exchange := func(owner string) (*View, Cursor, ApplyStats) {
		v, err := NewView(spec, owner, Options{})
		if err != nil {
			t.Fatal(err)
		}
		next, stats, err := ExchangeInto(ctx, bus, v, Cursor{}, DeleteProvenance)
		if err != nil {
			t.Fatal(err)
		}
		return v, next, stats
	}
	if got := pending(Cursor{}); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	v, cursor, stats := exchange("PBioSQL")
	if stats.InsL != 4 {
		t.Fatalf("InsL = %d, want 4", stats.InsL)
	}
	if got := pending(cursor); got != 0 {
		t.Fatalf("pending after exchange: %d", got)
	}
	if v.Instance("B").Len() != 4 {
		t.Fatalf("B after exchange:\n%s", v.DB().Dump(OutputRel("B")))
	}
	// A second peer exchanges later and sees the same world.
	v2, _, _ := exchange("PuBio")
	if v2.Instance("U").Len() != v.Instance("U").Len() {
		t.Fatal("views diverge under identical trust")
	}
	// Publishing edits to another peer's relation is rejected.
	if err := PublishTo(ctx, bus, spec, "PGUS", EditLog{Ins("B", MakeTuple(9, 9))}); err == nil {
		t.Fatal("cross-peer edit accepted")
	}
	if err := PublishTo(ctx, bus, spec, "nope", EditLog{}); err == nil {
		t.Fatal("unknown peer accepted")
	}
}

func TestNetEffect(t *testing.T) {
	v, err := NewView(paperSpec(t, nil), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-state: B(1,1) is a local contribution; B(2,2) is rejected.
	v.LocalTable("B").Insert(MakeTuple(1, 1))
	v.RejectTable("B").Insert(MakeTuple(2, 2))

	log := EditLog{
		Ins("B", MakeTuple(3, 3)), // plain insert
		Del("B", MakeTuple(3, 3)), // …cancelled
		Del("B", MakeTuple(1, 1)), // deletes own contribution
		Del("B", MakeTuple(4, 4)), // rejection of imported data
		Ins("B", MakeTuple(2, 2)), // un-rejects and contributes
		Ins("B", MakeTuple(5, 5)), // plain insert
	}
	dl, dr, err := NetEffect(log, v.db)
	if err != nil {
		t.Fatal(err)
	}
	insL, delL := dl.At("B").Ins(), dl.At("B").Del()
	insR, delR := dr.At("B").Ins(), dr.At("B").Del()
	if len(insL) != 2 || !insL[0].Equal(MakeTuple(2, 2)) || !insL[1].Equal(MakeTuple(5, 5)) {
		t.Fatalf("insL = %v", insL)
	}
	if len(delL) != 1 || !delL[0].Equal(MakeTuple(1, 1)) {
		t.Fatalf("delL = %v", delL)
	}
	if len(insR) != 1 || !insR[0].Equal(MakeTuple(4, 4)) {
		t.Fatalf("insR = %v", insR)
	}
	if len(delR) != 1 || !delR[0].Equal(MakeTuple(2, 2)) {
		t.Fatalf("delR = %v", delR)
	}
}

func TestNetEffectErrors(t *testing.T) {
	v, err := NewView(paperSpec(t, nil), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NetEffect(EditLog{Ins("Zed", MakeTuple(1))}, v.db); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, _, err := NetEffect(EditLog{Ins("B", MakeTuple(1))}, v.db); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	u := schema.NewUniverse()
	p := schema.NewPeer("P")
	p.AddRelation("R", schema.Column{Name: "x"}, schema.Column{Name: "y"})
	u.AddPeer(p)
	if _, err := NewSpec(nil, nil, nil); err == nil {
		t.Fatal("nil universe accepted")
	}
	if _, err := NewSpec(u, []*tgd.TGD{tgd.MustParse("R(x,y) -> R(y,x)")}, nil); err == nil {
		t.Fatal("mapping without id accepted")
	}
	dup := []*tgd.TGD{tgd.MustParse("m: R(x,y) -> R(y,x)"), tgd.MustParse("m: R(x,y) -> R(x,x)")}
	if _, err := NewSpec(u, dup, nil); err == nil {
		t.Fatal("duplicate id accepted")
	}
	// Weak-acyclicity violation: R(x,y) -> ∃z R(y,z).
	if _, err := NewSpec(u, []*tgd.TGD{tgd.MustParse("m: R(x,y) -> R(y,z)")}, nil); err == nil {
		t.Fatal("non-weakly-acyclic set accepted")
	}
	if _, err := NewSpec(u, nil, map[string]*trust.Policy{"ghost": trust.NewPolicy("ghost")}); err == nil {
		t.Fatal("policy for unknown peer accepted")
	}
	if _, err := NewView(&Spec{Universe: u}, "ghost", Options{}); err == nil {
		t.Fatal("unknown view owner accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	for _, q := range []string{
		"ans(x)",                 // no :-
		"ans(x), b(x) :- U(x,y)", // two heads
		"ans(x) :- Zed(x)",       // unknown relation
		"ans(z) :- U(x,y)",       // unsafe head
	} {
		if _, err := v.Query(context.Background(), q, false); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
}

func TestMakeTuple(t *testing.T) {
	tup := MakeTuple(1, int64(2), "x", value.Null(3))
	if tup[0] != value.Int(1) || tup[1] != value.Int(2) || tup[2] != value.String("x") || tup[3] != value.Null(3) {
		t.Fatalf("MakeTuple = %v", tup)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsupported type accepted")
		}
	}()
	MakeTuple(3.14)
}
