package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"orchestra/internal/engine"
	"orchestra/internal/schema"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
	"orchestra/internal/value"
)

// specWithMappings rebuilds the paper spec with a subset of its mappings
// (same universe and policies).
func specWithMappings(t *testing.T, base *Spec, ids ...string) *Spec {
	t.Helper()
	keep := make(map[string]bool, len(ids))
	for _, id := range ids {
		keep[id] = true
	}
	var ms []*tgd.TGD
	for _, m := range base.Mappings {
		if keep[m.ID] {
			ms = append(ms, m)
		}
	}
	sp, err := NewSpec(base.Universe, ms, base.Policies)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// tableDump renders every persistent table of a view (base, derived, and
// provenance — scratch tables excluded) as a sorted row list with
// labeled nulls shown structurally, so two views with different null-id
// histories compare equal iff they are isomorphic.
func tableDump(v *View) map[string]string {
	out := make(map[string]string)
	sk := v.Skolems()
	for _, name := range v.DB().Names() {
		if strings.HasPrefix(name, "q$") {
			continue
		}
		var rows []string
		v.DB().Table(name).Each(func(row value.Tuple) bool {
			parts := make([]string, len(row))
			for i, val := range row {
				parts[i] = sk.Describe(val)
			}
			rows = append(rows, "("+strings.Join(parts, ",")+")")
			return true
		})
		sort.Strings(rows)
		out[name] = strings.Join(rows, " ")
	}
	return out
}

// assertViewsEquivalent compares every persistent table of two views of
// the same spec.
func assertViewsEquivalent(t *testing.T, label string, got, want *View) {
	t.Helper()
	gotTables, wantTables := tableDump(got), tableDump(want)
	for name, wantRows := range wantTables {
		gotRows, ok := gotTables[name]
		if !ok {
			t.Errorf("%s: table %q missing from evolved view", label, name)
			continue
		}
		if gotRows != wantRows {
			t.Errorf("%s: table %q differs\n evolved: %s\n fresh:   %s", label, name, gotRows, wantRows)
		}
	}
	for name := range gotTables {
		if _, ok := wantTables[name]; !ok {
			t.Errorf("%s: evolved view has extra table %q", label, name)
		}
	}
}

func evolveBackends(t *testing.T, run func(t *testing.T, be engine.Backend)) {
	for _, be := range []engine.Backend{engine.BackendIndexed, engine.BackendHash} {
		be := be
		name := "indexed"
		if be == engine.BackendHash {
			name = "hash"
		}
		t.Run(name, func(t *testing.T) { run(t, be) })
	}
}

func TestMappingRuleBase(t *testing.T) {
	for in, want := range map[string]string{
		"m1'":     "m1",
		"m1''":    "m1",
		"m1''#2":  "m1",
		"m1'#0":   "m1",
		"in$R'":   "in$R",
		"lc$R''":  "lc$R",
		"weird":   "weird",
		"m10''#3": "m10",
	} {
		if got := mappingRuleBase(in); got != want {
			t.Errorf("mappingRuleBase(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBaseTrustChanged checks that Evolve repairs a change of
// base-level trust (peer distrust, base conditions) in place, as it
// does mapping conditions: for every old→new policy pair, the repaired
// view equals a fresh view built under the new policy from the same
// edits. The condition-bound pairs pin that the (ℓR) filter's
// description carries the condition itself: with a content-free name
// the rule text would not change and the repair would do nothing.
func TestBaseTrustChanged(t *testing.T) {
	full := paperSpec(t, nil)
	mkPol := func(build func(*trust.Policy)) map[string]*trust.Policy {
		p := trust.NewPolicy("PBioSQL")
		build(p)
		return map[string]*trust.Policy{"PBioSQL": p}
	}
	withPol := func(pols map[string]*trust.Policy) *Spec {
		sp, err := NewSpec(full.Universe, full.Mappings, pols)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	pred := func(s string) *trust.Pred {
		p, err := trust.ParsePred(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	build := func(sp *Spec) *View {
		v, err := NewView(sp, "PBioSQL", Options{})
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

	base := withPol(nil)
	distrust := withPol(mkPol(func(p *trust.Policy) { p.DistrustPeer("PuBio") }))
	distrustMore := withPol(mkPol(func(p *trust.Policy) {
		p.DistrustPeer("PuBio")
		p.DistrustBase("G", pred("id >= 3"))
	}))
	mappingOnly := withPol(mkPol(func(p *trust.Policy) { p.DistrustMapping("m1", pred("n >= 3")) }))
	baseFrom3 := withPol(mkPol(func(p *trust.Policy) { p.DistrustBase("G", pred("id >= 3")) }))
	baseFrom1 := withPol(mkPol(func(p *trust.Policy) { p.DistrustBase("G", pred("id >= 1")) }))

	cases := []struct {
		name     string
		old, new *Spec
	}{
		{"tighten base", base, distrust},
		{"tighten further", distrust, distrustMore},
		{"loosen peer distrust", distrust, base},
		{"loosen one of two", distrustMore, distrust},
		{"same base", distrust, distrust},
		{"mapping conds only", base, mappingOnly},
		{"drop mapping conds", mappingOnly, base},
		{"widen base condition", baseFrom3, baseFrom1},
		{"narrow base condition", baseFrom1, baseFrom3},
	}
	for _, c := range cases {
		v := build(c.old)
		if _, err := v.Evolve(context.Background(), c.new); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertViewsEquivalent(t, c.name, v, build(c.new))
	}
}

func TestViewAddMappings(t *testing.T) {
	evolveBackends(t, func(t *testing.T, be engine.Backend) {
		full := paperSpec(t, nil)
		initial := specWithMappings(t, full, "m1", "m2", "m4")
		opts := Options{Backend: be}

		v, err := NewView(initial, "", opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, peer := range []string{"PGUS", "PBioSQL", "PuBio"} {
			if _, err := v.ApplyEdits(context.Background(), example3Logs()[peer], DeleteProvenance); err != nil {
				t.Fatal(err)
			}
		}

		// Evolve: add m3 (it has an existential, exercising Skolems).
		if _, err := v.Evolve(context.Background(), full); err != nil {
			t.Fatal(err)
		}

		fresh := loadExample3(t, full, opts)
		assertViewsEquivalent(t, "add m3", v, fresh)
	})
}

func TestViewRemoveMappings(t *testing.T) {
	evolveBackends(t, func(t *testing.T, be engine.Backend) {
		// The view repairs a mapping removal in place from provenance.
		t.Run(DeleteProvenance.String(), func(t *testing.T) {
			full := paperSpec(t, nil)
			reduced := specWithMappings(t, full, "m2", "m3", "m4")
			opts := Options{Backend: be}
			v := loadExample3(t, full, opts)
			if _, err := v.Evolve(context.Background(), reduced); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewView(reduced, "", opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, peer := range []string{"PGUS", "PBioSQL", "PuBio"} {
				if _, err := fresh.ApplyEdits(context.Background(), example3Logs()[peer], DeleteProvenance); err != nil {
					t.Fatal(err)
				}
			}
			assertViewsEquivalent(t, "remove m1", v, fresh)

			// B(3,5) is a base contribution of PBioSQL: it must survive
			// the removal of m1 even though m1 also derived it.
			if !v.Instance("B").Contains(MakeTuple(3, 5)) {
				t.Fatalf("base tuple B(3,5) lost by mapping removal")
			}
		})
	})
}

func TestViewApplyTrust(t *testing.T) {
	evolveBackends(t, func(t *testing.T, be engine.Backend) {
		full := paperSpec(t, nil)
		opts := Options{Backend: be}
		ctx := context.Background()

		pred := func(s string) *trust.Pred {
			p, err := trust.ParsePred(s)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		pol := trust.NewPolicy("PBioSQL")
		pol.DistrustMapping("m1", pred("n >= 3"))
		restricted, err := NewSpec(full.Universe, full.Mappings, map[string]*trust.Policy{"PBioSQL": pol})
		if err != nil {
			t.Fatal(err)
		}

		freshFor := func(sp *Spec, owner string) *View {
			fv, err := NewView(sp, owner, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, peer := range []string{"PGUS", "PBioSQL", "PuBio"} {
				if _, err := fv.ApplyEdits(context.Background(), example3Logs()[peer], DeleteProvenance); err != nil {
					t.Fatal(err)
				}
			}
			return fv
		}

		// The view repairs a trust change in place from provenance.
		t.Run(DeleteProvenance.String(), func(t *testing.T) {
			// Revocation: PBioSQL's view starts trust-all, then distrusts
			// m1 derivations with n >= 3.
			v := freshFor(full, "PBioSQL")
			if _, err := v.Evolve(ctx, restricted); err != nil {
				t.Fatal(err)
			}
			assertViewsEquivalent(t, "revoke", v, freshFor(restricted, "PBioSQL"))

			// Grant: back to trust-all.
			if _, err := v.Evolve(ctx, full); err != nil {
				t.Fatal(err)
			}
			assertViewsEquivalent(t, "grant", v, freshFor(full, "PBioSQL"))
		})
	})
}

func TestViewRecompileAddsPeer(t *testing.T) {
	full := paperSpec(t, nil)
	v := loadExample3(t, full, Options{})

	// Extend the universe with peer PNew{W}.
	u2 := schema.NewUniverse()
	for _, p := range full.Universe.Peers() {
		if err := u2.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	nw := schema.NewPeer("PNew")
	if _, err := nw.AddRelation("W",
		schema.Column{Name: "a", Type: schema.TypeInt},
		schema.Column{Name: "b", Type: schema.TypeInt}); err != nil {
		t.Fatal(err)
	}
	if err := u2.AddPeer(nw); err != nil {
		t.Fatal(err)
	}
	withPeer, err := NewSpec(u2, full.Mappings, full.Policies)
	if err != nil {
		t.Fatal(err)
	}

	before := tableDump(v)
	if _, err := v.Evolve(context.Background(), withPeer); err != nil {
		t.Fatal(err)
	}
	after := tableDump(v)
	for name, rows := range before {
		if after[name] != rows {
			t.Errorf("recompile changed table %q", name)
		}
	}
	// The new peer's tables exist and are empty.
	if tbl := v.DB().Table(OutputRel("W")); tbl == nil || tbl.Len() != 0 {
		t.Fatalf("new relation W$o missing or non-empty: %v", tbl)
	}

	// And it can immediately receive mapped data.
	fullPlus, err := NewSpec(u2, append(append([]*tgd.TGD(nil), full.Mappings...), tgd.MustParse("m5: U(n,c) -> W(n,n)")), full.Policies)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Evolve(context.Background(), fullPlus); err != nil {
		t.Fatal(err)
	}
	if got := v.Instance("W").Len(); got == 0 {
		t.Fatal("mapping onto the new peer derived nothing")
	}
}

// TestViewRedefineMapping checks a mapping whose body changes under the
// same id, here with a provenance table of a different arity: the old
// derivations go as in a removal, the new body derives as in an
// addition, and the view ends equal to a fresh one.
func TestViewRedefineMapping(t *testing.T) {
	evolveBackends(t, func(t *testing.T, be engine.Backend) {
		full := paperSpec(t, nil)
		ms := append([]*tgd.TGD(nil), full.Mappings...)
		ms[0] = tgd.MustParse("m1: U(n,c) -> B(c,n)")
		redefined, err := NewSpec(full.Universe, ms, full.Policies)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Backend: be}
		v := loadExample3(t, full, opts)
		if _, err := v.Evolve(context.Background(), redefined); err != nil {
			t.Fatal(err)
		}
		assertViewsEquivalent(t, "redefine m1", v, loadExample3(t, redefined, opts))
	})
}

// evolveCounted evolves v onto sp and fails unless the repair compiled
// the program exactly once and ran at most one deletion cascade.
func evolveCounted(t *testing.T, label string, v *View, sp *Spec) ApplyStats {
	t.Helper()
	compiles, cascades := v.compiles, v.cascades
	stats, err := v.Evolve(context.Background(), sp)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got := v.compiles - compiles; got != 1 {
		t.Errorf("%s: %d compiles, want 1", label, got)
	}
	if got := v.cascades - cascades; got > 1 {
		t.Errorf("%s: %d deletion cascades, want at most 1", label, got)
	}
	return stats
}

// TestViewEvolveMultiOp checks that a spec change of several ops — a
// removed mapping, a redefined one, an added one and a trust change —
// is one repair: one compile, at most one cascade, and a view equal to
// a fresh one of the final spec.
func TestViewEvolveMultiOp(t *testing.T) {
	evolveBackends(t, func(t *testing.T, be engine.Backend) {
		full := paperSpec(t, nil)
		cond, err := trust.ParsePred("n >= 3")
		if err != nil {
			t.Fatal(err)
		}
		pol := trust.NewPolicy("PBioSQL")
		pol.DistrustMapping("m4", cond)
		final, err := NewSpec(full.Universe, []*tgd.TGD{
			tgd.MustParse("m2: G(i,c,n) -> U(n,i)"),
			full.Mappings[2],
			full.Mappings[3],
			tgd.MustParse("m5: U(n,c) -> B(c,n)"),
		}, map[string]*trust.Policy{"PBioSQL": pol})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Backend: be}
		load := func(sp *Spec) *View {
			v, err := NewView(sp, "PBioSQL", opts)
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
		v := load(full)
		stats := evolveCounted(t, "multi-op", v, final)
		if stats.ProvRowsDeleted == 0 || stats.Engine.RuleFires == 0 {
			t.Errorf("multi-op: %d provenance rows deleted, %d rule fires; want both", stats.ProvRowsDeleted, stats.Engine.RuleFires)
		}
		assertViewsEquivalent(t, "multi-op", v, load(final))
	})
}

// TestViewEvolveNoop checks that evolving onto a spec equal to the
// current one — the same spec, or one reached by adding and then
// removing a mapping — repairs nothing: no rule fires, no provenance row
// is deleted, every table is unchanged, and the program is compiled
// once.
func TestViewEvolveNoop(t *testing.T) {
	full := paperSpec(t, nil)
	withM5, err := NewSpec(full.Universe, append(append([]*tgd.TGD(nil), full.Mappings...), tgd.MustParse("m5: U(n,c) -> B(c,n)")), full.Policies)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := specWithMappings(t, withM5, "m1", "m2", "m3", "m4")
	for _, c := range []struct {
		name string
		sp   *Spec
	}{{"unchanged", full}, {"add then remove", roundTrip}} {
		v := loadExample3(t, full, Options{})
		before := tableDump(v)
		stats := evolveCounted(t, c.name, v, c.sp)
		if stats.Engine.RuleFires != 0 || stats.ProvRowsDeleted != 0 {
			t.Errorf("%s: %d rule fires, %d provenance rows deleted; want none", c.name, stats.Engine.RuleFires, stats.ProvRowsDeleted)
		}
		after := tableDump(v)
		for name, rows := range before {
			if after[name] != rows {
				t.Errorf("%s: table %q changed", c.name, name)
			}
		}
	}
}

func TestSpecFingerprint(t *testing.T) {
	a := paperSpec(t, nil)
	b := paperSpec(t, nil)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical specs produced different fingerprints")
	}
	reduced := specWithMappings(t, a, "m1", "m2", "m3")
	if reduced.Fingerprint() == a.Fingerprint() {
		t.Fatal("removing a mapping did not change the fingerprint")
	}
	pol := trust.NewPolicy("PBioSQL")
	pol.DistrustPeer("PuBio")
	withPol, err := NewSpec(a.Universe, a.Mappings, map[string]*trust.Policy{"PBioSQL": pol})
	if err != nil {
		t.Fatal(err)
	}
	if withPol.Fingerprint() == a.Fingerprint() {
		t.Fatal("adding a policy did not change the fingerprint")
	}
	// A trust-all (empty) policy equals no policy.
	empty, err := NewSpec(a.Universe, a.Mappings, map[string]*trust.Policy{"PBioSQL": trust.NewPolicy("PBioSQL")})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Fingerprint() != a.Fingerprint() {
		t.Fatal("an empty policy changed the fingerprint")
	}
}
