package core

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"orchestra/internal/provenance"
)

// The declarative inverse-rule program (§4.1.3) must compute exactly the
// same support sets as the optimized procedural backward pass.
func TestSupportDeclarativeMatchesProcedural(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	targets := [][]provenance.Ref{
		{OutRef("B", MakeTuple(3, 2))},
		{OutRef("B", MakeTuple(3, 3))},
		{OutRef("U", MakeTuple(3, 2))},
		{OutRef("B", MakeTuple(3, 2)), OutRef("B", MakeTuple(1, 3))},
		{OutRef("G", MakeTuple(1, 2, 3))},
	}
	for _, ts := range targets {
		declarative := supportDeclarative(t, v, ts)
		nodes := make([]tupleNode, len(ts))
		for i, ref := range ts {
			nodes[i] = tupleNode{ref, ref.Tuple()}
		}
		procedural := v.supportOf(nodes)
		if len(declarative) != len(procedural) {
			t.Fatalf("targets %v: declarative %v vs procedural %v", ts, declarative, procedural)
		}
		for ref := range procedural {
			if !declarative[ref] {
				t.Fatalf("targets %v: declarative missing %v", ts, ref)
			}
		}
	}
}

func TestSupportDeclarativeOnCycle(t *testing.T) {
	v, err := NewView(cycleSpec(t), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("A", MakeTuple(1))}, DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	sup := supportDeclarative(t, v, []provenance.Ref{OutRef("B", MakeTuple(1))})
	if len(sup) != 1 || !sup[BaseRef("A", MakeTuple(1))] {
		t.Fatalf("cycle support = %v", sup)
	}
	// After removing the base tuple directly, the declarative program
	// reports no support (the chk trace survives, the intersection with
	// Rℓ is empty).
	v.LocalTable("A").Delete(MakeTuple(1))
	sup = supportDeclarative(t, v, []provenance.Ref{OutRef("B", MakeTuple(1))})
	if len(sup) != 0 {
		t.Fatalf("support after base deletion = %v", sup)
	}
}

func TestInverseProgramShape(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	o := newInverseOracle(t, v)
	text := o.prog.String()
	// One P′ rule per target atom and one chk rule per source atom of
	// every mapping (user + internal bookkeeping).
	for _, frag := range []string{"pi$m1(", "pi$m4(", "c$G$o(", "c$B$l(", "pi$in$B(", "pi$lc$U("} {
		if !strings.Contains(text, frag) {
			t.Fatalf("inverse program missing %q:\n%s", frag, text)
		}
	}
	if err := o.prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// The workspace is cleared between calls: repeated use is stable.
	sup1 := o.support(t, []provenance.Ref{OutRef("B", MakeTuple(3, 2))})
	sup2 := o.support(t, []provenance.Ref{OutRef("B", MakeTuple(3, 2))})
	if len(sup1) != len(sup2) {
		t.Fatalf("repeated runs differ: %v vs %v", sup1, sup2)
	}
}

// TestSnapshotExcludesInverseWorkspace pins the oracle's isolation:
// running it leaves the live view's table names and snapshot bytes
// unchanged, because its workspace lives in a private copy.
func TestSnapshotExcludesInverseWorkspace(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	snapshot := func() []byte {
		var buf bytes.Buffer
		if err := v.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	names, before := v.db.Names(), snapshot()
	supportDeclarative(t, v, []provenance.Ref{OutRef("B", MakeTuple(3, 2))})
	if got := v.db.Names(); !slices.Equal(got, names) {
		t.Fatalf("oracle changed the live view's tables: %v, was %v", got, names)
	}
	if !bytes.Equal(snapshot(), before) {
		t.Fatal("oracle changed the live view's snapshot")
	}
}
