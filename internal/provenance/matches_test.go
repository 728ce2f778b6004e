package provenance_test

import (
	"context"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/provenance"
	"orchestra/internal/value"
	"orchestra/internal/workload"
)

// TestMatchesEqualsInstantiate checks AtomTemplate.Matches against the
// comparison it replaces, Instantiate(row).Equal(want), on every
// template of generated chain confederations whose mappings carry
// existentials in both directions, so Skolem terms also take labeled
// nulls as arguments. For every provenance row r, Matches(r,
// Instantiate(r)) holds; for every row r' of r's table — a superset of
// the index bucket a deletion probe visits — Matches(r', want) equals
// Instantiate(r').Equal(want); and a want whose Skolem position holds
// another existential's null, another row's null, an unknown null or a
// constant matches nothing.
func TestMatchesEqualsInstantiate(t *testing.T) {
	ctx := context.Background()
	var compared, negatives, nullArgs int
	for seed := int64(1); seed <= 4; seed++ {
		w, err := workload.New(workload.Config{
			Peers:    4,
			Topology: workload.TopologyChain,
			AttrMode: workload.AttrsRandom,
			Dataset:  workload.DatasetInteger,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.NewView(w.Spec, "", core.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, peer := range w.PeerNames() {
			if _, err := v.ApplyEdits(ctx, w.GenInsertions(peer, 12), core.DeleteProvenance); err != nil {
				t.Fatal(err)
			}
		}
		sk := v.Skolems()
		var s provenance.Scratch
		for _, mi := range v.Graph().Mappings() {
			pt := v.DB().Table(mi.ProvRel)
			rows := pt.AllRows()
			for _, tmpls := range [][]provenance.AtomTemplate{mi.Sources, mi.Targets} {
				for i := range tmpls {
					tmpl := &tmpls[i]
					for ri, r := range rows {
						want := tmpl.Instantiate(nil, r.Tuple, sk, &s)
						if !tmpl.Matches(r.Tuple, want, sk) {
							t.Fatalf("seed %d %s: row %v does not match its own instance %v", seed, tmpl.Rel, r.Tuple, want)
						}
						for _, r2 := range rows {
							exp := tmpl.Instantiate(nil, r2.Tuple, sk, &s).Equal(want)
							if got := tmpl.Matches(r2.Tuple, want, sk); got != exp {
								t.Fatalf("seed %d %s: Matches(%v, %v) = %v, Instantiate says %v", seed, tmpl.Rel, r2.Tuple, want, got, exp)
							}
							compared++
							if !exp {
								negatives++
							}
						}
						for j, a := range tmpl.Args {
							if a.Col >= -1 {
								continue
							}
							for _, c := range a.FnArgCols {
								if r.Tuple[c].IsNull() {
									nullArgs++
								}
							}
							others := []value.Value{value.Null(int64(sk.Len()) + 1), value.Int(want[j].NullID())}
							// Another existential of the same atom: same
							// arguments, another Skolem function.
							for j2, a2 := range tmpl.Args {
								if j2 != j && a2.Col < -1 {
									others = append(others, want[j2])
								}
							}
							if ri+1 < len(rows) {
								others = append(others, tmpl.Instantiate(nil, rows[ri+1].Tuple, sk, &s)[j])
							}
							for _, other := range others {
								if other == want[j] {
									continue
								}
								bad := append(value.Tuple(nil), want...)
								bad[j] = other
								if tmpl.Matches(r.Tuple, bad, sk) {
									t.Fatalf("seed %d %s: row %v matches %v with position %d replaced", seed, tmpl.Rel, r.Tuple, bad, j)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d comparisons, %d non-matching, %d Skolem arguments that are nulls", compared, negatives, nullArgs)
	if negatives == 0 || nullArgs == 0 {
		t.Fatalf("the generated confederations exercise too little: %d non-matching comparisons, %d Skolem arguments that are nulls", negatives, nullArgs)
	}
}
