package core

import (
	"context"
	"testing"

	"orchestra/internal/engine"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
	"orchestra/internal/semiring"
	"orchestra/internal/tgd"
)

// cycleSpec builds the minimal mutually-recursive CDSS: peers P{A(x)}
// and Q{B(x)} with full-tgd mappings A→B and B→A. Full tgds keep the set
// weakly acyclic while the provenance graph contains genuine loops —
// exactly the "several tuples mutually derivable from one another, yet
// none derivable from edbs" situation §4.2 says deletion must garbage
// collect.
func cycleSpec(t *testing.T) *Spec {
	t.Helper()
	u := schema.NewUniverse()
	p := schema.NewPeer("P")
	if _, err := p.AddRelation("A", schema.Column{Name: "x", Type: schema.TypeInt}); err != nil {
		t.Fatal(err)
	}
	q := schema.NewPeer("Q")
	if _, err := q.AddRelation("B", schema.Column{Name: "x", Type: schema.TypeInt}); err != nil {
		t.Fatal(err)
	}
	for _, peer := range []*schema.Peer{p, q} {
		if err := u.AddPeer(peer); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := NewSpec(u, []*tgd.TGD{
		tgd.MustParse("ma: A(x) -> B(x)"),
		tgd.MustParse("mb: B(x) -> A(x)"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCyclicGarbageCollection is the Fig. 3 / Example 10 scenario: after
// deleting the only base support, the A(1) ↔ B(1) derivation loop must
// be garbage collected even though each tuple still "supports" the
// other.
func TestCyclicGarbageCollection(t *testing.T) {
	for _, strategy := range []DeletionStrategy{DeleteProvenance, DeleteDRed, DeleteRecompute} {
		for _, be := range []engine.Backend{engine.BackendIndexed, engine.BackendHash} {
			t.Run(strategy.String()+"/"+be.String(), func(t *testing.T) {
				v, err := NewView(cycleSpec(t), "", Options{Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("A", MakeTuple(1))}, strategy); err != nil {
					t.Fatal(err)
				}
				// The loop materialized: A and B both hold (1).
				if !v.Instance("A").Contains(MakeTuple(1)) || !v.Instance("B").Contains(MakeTuple(1)) {
					t.Fatalf("loop not established:\n%s", v.db.Dump())
				}
				// Input tables mutually support the pair.
				if !v.InputTable("A").Contains(MakeTuple(1)) {
					t.Fatal("A input missing (mb should derive it)")
				}

				stats, err := v.ApplyEdits(context.Background(), EditLog{Del("A", MakeTuple(1))}, strategy)
				if err != nil {
					t.Fatal(err)
				}
				// Everything must be gone — instances, inputs, provenance.
				if v.db.TotalRows() != 0 {
					t.Fatalf("garbage left after deleting the only edb support (%s):\n%s",
						strategy, v.db.Dump())
				}
				if strategy == DeleteProvenance && stats.Checked == 0 {
					t.Fatal("provenance deletion should have exercised the derivability test")
				}
			})
		}
	}
}

// TestCyclicPartialSupport deletes one of two supports: the loop must
// survive on the remaining one.
func TestCyclicPartialSupport(t *testing.T) {
	for _, strategy := range []DeletionStrategy{DeleteProvenance, DeleteDRed, DeleteRecompute} {
		t.Run(strategy.String(), func(t *testing.T) {
			v, err := NewView(cycleSpec(t), "", Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("A", MakeTuple(1))}, strategy); err != nil {
				t.Fatal(err)
			}
			// Q also inserts B(1) locally: a second, independent anchor.
			if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("B", MakeTuple(1))}, strategy); err != nil {
				t.Fatal(err)
			}
			if _, err := v.ApplyEdits(context.Background(), EditLog{Del("A", MakeTuple(1))}, strategy); err != nil {
				t.Fatal(err)
			}
			// B(1) is still locally contributed, so both instances keep (1).
			if !v.Instance("B").Contains(MakeTuple(1)) {
				t.Fatalf("B lost its own local contribution:\n%s", v.db.Dump())
			}
			if !v.Instance("A").Contains(MakeTuple(1)) {
				t.Fatalf("A lost the tuple still derivable via mb:\n%s", v.db.Dump())
			}
		})
	}
}

// TestCyclicSemiringEvaluations evaluates the cyclic view's provenance
// graph in several semirings: trust needs the edb anchor (Example 7's
// Boolean semiring); counts saturate; ranked trust (Viterbi, §8)
// discounts by mapping confidence along the best path.
func TestCyclicSemiringEvaluations(t *testing.T) {
	ctx := context.Background()
	v, err := NewView(cycleSpec(t), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyEdits(ctx, EditLog{Ins("A", MakeTuple(1))}, DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	g := v.Graph()
	aOut := OutRef("A", MakeTuple(1))
	bOut := OutRef("B", MakeTuple(1))
	token := BaseRef("A", MakeTuple(1))

	trustEval := func(tokenTrust bool) map[provenance.Ref]bool {
		got, err := provenance.Eval[bool](ctx, g, semiring.Bool{}, semiring.Identity[bool](),
			func(r provenance.Ref) bool { return r != token || tokenTrust }, provenance.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if trusted := trustEval(true); !trusted[aOut] || !trusted[bOut] {
		t.Fatal("fully trusted loop rejected")
	}
	if distrusted := trustEval(false); distrusted[aOut] || distrusted[bOut] {
		t.Fatal("loop sustained trust without trusted edb (least fixpoint violated)")
	}

	counts, err := provenance.Eval[int64](ctx, g, semiring.Count{Cap: 100}, semiring.Identity[int64](),
		func(provenance.Ref) int64 { return 1 }, provenance.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Infinitely many derivations around the loop: the count saturates.
	if counts[bOut] != 100 {
		t.Fatalf("count(B(1)) = %d, want saturation at 100", counts[bOut])
	}

	conf := map[string]float64{"ma": 0.5, "mb": 0.5}
	ranks, err := provenance.Eval[float64](ctx, g, semiring.Viterbi{},
		func(m string, x float64) float64 {
			if c, ok := conf[m]; ok {
				return c * x
			}
			return x
		},
		func(provenance.Ref) float64 { return 1 }, provenance.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Best derivation of B(1): token(1.0) via ma(0.5) = 0.5; of A(1): the
	// direct local contribution = 1.0.
	if ranks[bOut] != 0.5 {
		t.Fatalf("rank(B(1)) = %v, want 0.5", ranks[bOut])
	}
	if ranks[aOut] != 1.0 {
		t.Fatalf("rank(A(1)) = %v, want 1.0", ranks[aOut])
	}

	lin, err := provenance.Eval[semiring.LineageElem](ctx, g, semiring.Lineage{},
		semiring.Identity[semiring.LineageElem](),
		func(r provenance.Ref) semiring.LineageElem { return semiring.Token(g.TokenName(r)) },
		provenance.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lin[bOut].Bottom || len(lin[bOut].Set) != 1 {
		t.Fatalf("lineage(B(1)) = %v", lin[bOut])
	}
}
