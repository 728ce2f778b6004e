package core

import (
	"context"
	"testing"

	"orchestra/internal/provenance"
)

func TestQueryWhereClause(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	// B = {(3,5),(3,2),(1,3),(3,3)}.
	rows, err := v.Query(context.Background(), "ans(i,n) :- B(i,n) where n >= 3", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("where n>=3: %v", rows)
	}
	for _, r := range rows {
		if r[1].AsInt() < 3 {
			t.Fatalf("filter leaked %v", r)
		}
	}
	rows, err = v.Query(context.Background(), "ans(i,n) :- B(i,n) where n >= 3 and i = 3", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("conjunctive where: %v", rows)
	}
	// A trivially-true where keeps everything.
	rows, err = v.Query(context.Background(), "ans(i,n) :- B(i,n) where true", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("where true: %v", rows)
	}
	// Bad predicate is reported.
	if _, err := v.Query(context.Background(), "ans(i,n) :- B(i,n) where n !!", false); err == nil {
		t.Fatal("bad where accepted")
	}
}

func TestQueryJoinAcrossPeers(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	// Join G and B across peers: ids present in both with matching names.
	rows, err := v.Query(context.Background(), "ans(i) :- G(i,c,n), B(i,n)", false)
	if err != nil {
		t.Fatal(err)
	}
	// G(1,2,3) with B(1,3) and G(3,5,2) with B(3,2).
	if len(rows) != 2 {
		t.Fatalf("join: %v", rows)
	}
}

func TestQueryConstantsInBody(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	rows, err := v.Query(context.Background(), "ans(n) :- B(3, n)", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("constant selection: %v", rows)
	}
}

func TestQueryWorkspaceCleanup(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	for i := 0; i < 3; i++ {
		if _, err := v.Query(context.Background(), "ans(x,y) :- U(x,y)", false); err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
	}
	if v.DB().Table("q$ans") != nil {
		t.Fatal("query workspace leaked")
	}
}

func TestDerivabilityAPI(t *testing.T) {
	v := loadExample3(t, paperSpec(t, nil), Options{})
	ok, support, err := v.Derivability(context.Background(), "B", MakeTuple(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("B(3,2) not derivable")
	}
	// Support must include the base G tuple (via m1) among others.
	found := false
	for _, r := range support {
		if r == provenance.NewRef(LocalRel("G"), MakeTuple(3, 5, 2)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("support missing G base tuple: %v", support)
	}
	// An absent tuple is not derivable and has empty support.
	ok, support, err = v.Derivability(context.Background(), "B", MakeTuple(99, 99))
	if err != nil {
		t.Fatal(err)
	}
	if ok || len(support) != 0 {
		t.Fatalf("phantom tuple derivable: %v %v", ok, support)
	}
}

// TestQueryLiteralsHoldKeywords asks queries whose string constants
// spell the query syntax's own words and operators. The old parser split
// the text at the first " where ", at every " and ", and at the first
// operator it found, so it refused all three.
func TestQueryLiteralsHoldKeywords(t *testing.T) {
	v, err := NewView(kindSpec(t), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	log := EditLog{Ins("S", MakeTuple(1, "a where b")), Ins("S", MakeTuple(2, "x and y")), Ins("S", MakeTuple(3, "b"))}
	if _, err := v.ApplyEdits(context.Background(), log, DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    string
		want int64
	}{
		{`ans(k) :- S(k, "a where b")`, 1},
		{`ans(k) :- S(k, s) where s = "x and y"`, 2},
		{`ans(k) :- S(k, s) where s < "a=b"`, 1},
	} {
		rows, err := v.Query(context.Background(), c.q, false)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if len(rows) != 1 || rows[0][0].AsInt() != c.want {
			t.Fatalf("%s: %v, want [[%d]]", c.q, rows, c.want)
		}
	}
}
