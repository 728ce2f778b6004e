package orchestra_test

import (
	"context"
	"strings"
	"testing"

	"orchestra"
)

// seedExample publishes Example 3's edits and exchanges the owner view.
func seedExample(t *testing.T, sys *orchestra.System, owner string) {
	t.Helper()
	ctx := context.Background()
	logs := []struct {
		peer string
		log  orchestra.EditLog
	}{
		{"PGUS", orchestra.EditLog{
			orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3)),
			orchestra.Ins("G", orchestra.MakeTuple(3, 5, 2)),
		}},
		{"PBioSQL", orchestra.EditLog{orchestra.Ins("B", orchestra.MakeTuple(3, 5))}},
		{"PuBio", orchestra.EditLog{orchestra.Ins("U", orchestra.MakeTuple(2, 5))}},
	}
	for _, s := range logs {
		if err := sys.Publish(ctx, s.peer, s.log); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Exchange(ctx, owner); err != nil {
		t.Fatal(err)
	}
}

func TestWithSecondaryIndexValidation(t *testing.T) {
	sp := parseTestSpec(t)
	cases := []struct{ owner, rel, col string }{
		{"Nope", "B", "id"},
		{"", "Zed", "id"},
		{"", "B", "nope"},
	}
	for _, c := range cases {
		if _, err := orchestra.New(sp, orchestra.WithSecondaryIndex(c.owner, c.rel, c.col)); err == nil {
			t.Errorf("WithSecondaryIndex(%q,%q,%q) accepted", c.owner, c.rel, c.col)
		}
	}
	sys, err := orchestra.New(sp, orchestra.WithSecondaryIndex("", "B", "id"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
}

func TestQueryCacheFacadeStatsAndMetrics(t *testing.T) {
	ctx := context.Background()
	o := orchestra.NewObservability(0)
	sys, err := orchestra.New(parseTestSpec(t), orchestra.WithObservability(o))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	seedExample(t, sys, "")
	q := "ans(i,n) :- B(i,n)"
	for i := 0; i < 3; i++ {
		if _, err := sys.Query(ctx, "", q, false); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _, err := sys.QueryCacheStats("")
	if err != nil {
		t.Fatal(err)
	}
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	// A write through the bus invalidates on the next read.
	if err := sys.Publish(ctx, "PBioSQL", orchestra.EditLog{orchestra.Ins("B", orchestra.MakeTuple(7, 7))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	rows, err := sys.Query(ctx, "", q, false)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r[0].AsInt() == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale cached result after exchange: %v", rows)
	}
	var b strings.Builder
	o.Registry().WritePrometheus(&b)
	text := b.String()
	for _, name := range []string{"orchestra_query_cache_hits", "orchestra_query_cache_misses", "orchestra_query_cache_evictions"} {
		if !strings.Contains(text, name) {
			t.Errorf("registry missing %s", name)
		}
	}
}

func TestWithQueryCacheDisabledFacade(t *testing.T) {
	sys, err := orchestra.New(parseTestSpec(t), orchestra.WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	seedExample(t, sys, "")
	for i := 0; i < 2; i++ {
		if _, err := sys.Query(context.Background(), "", "ans(i,n) :- B(i,n)", false); err != nil {
			t.Fatal(err)
		}
	}
	if h, m, e, err := sys.QueryCacheStats(""); err != nil || h+m+e != 0 {
		t.Fatalf("disabled cache active: %d/%d/%d (%v)", h, m, e, err)
	}
}
