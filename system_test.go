package orchestra_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"orchestra"
)

const testCDSS = `
peer PGUS    { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
peer PuBio   { relation U(nam int, can int) }

mapping m1: G(i,c,n) -> B(i,n)
mapping m2: G(i,c,n) -> U(n,c)
mapping m3: B(i,n) -> exists c . U(n,c)
mapping m4: B(i,c), U(n,c) -> B(i,n)
`

func parseTestSpec(t *testing.T) *orchestra.Spec {
	t.Helper()
	parsed, err := orchestra.ParseSpecString(testCDSS)
	if err != nil {
		t.Fatal(err)
	}
	return parsed.Spec
}

// runScenario drives the paper's Example 3 lifecycle (inserts, exchange,
// curation deletion, exchange) against a system and returns a printable
// digest of every instance, a query answer, and provenance.
func runScenario(t *testing.T, sys *orchestra.System) string {
	t.Helper()
	ctx := context.Background()
	steps := []struct {
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
	for _, s := range steps {
		if err := sys.Publish(ctx, s.peer, s.log); err != nil {
			t.Fatalf("publish %s: %v", s.peer, err)
		}
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	// Curation deletion (end of Example 3), then a second exchange.
	if err := sys.Publish(ctx, "PBioSQL", orchestra.EditLog{orchestra.Del("B", orchestra.MakeTuple(3, 2))}); err != nil {
		t.Fatalf("publish deletion: %v", err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatalf("exchange 2: %v", err)
	}
	return digest(t, sys, "")
}

// digest renders an owner's instances (sorted), a certain-answer query,
// and the provenance of B(3,5)/B(1,3) into one comparable string.
func digest(t *testing.T, sys *orchestra.System, owner string) string {
	t.Helper()
	ctx := context.Background()
	out := ""
	for _, rel := range sys.RelationNames() {
		rows, err := sys.Instance(owner, rel)
		if err != nil {
			t.Fatal(err)
		}
		descs := make([]string, len(rows))
		for i, row := range rows {
			d, err := sys.Describe(owner, row)
			if err != nil {
				t.Fatal(err)
			}
			descs[i] = d
		}
		sort.Strings(descs)
		out += fmt.Sprintf("%s=%v\n", rel, descs)
	}
	rows, err := sys.Query(ctx, owner, "ans(x,y) :- U(x,y)", false)
	if err != nil {
		t.Fatal(err)
	}
	answers := make([]string, len(rows))
	for i, row := range rows {
		answers[i] = row.String()
	}
	sort.Strings(answers)
	out += fmt.Sprintf("query=%v\n", answers)
	for _, tup := range []orchestra.Tuple{orchestra.MakeTuple(3, 5), orchestra.MakeTuple(1, 3)} {
		info, err := sys.Provenance(ctx, owner, "B", tup)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(info.Support)
		out += fmt.Sprintf("prov B%s expr=%s derivable=%v support=%v\n", tup, info.Expr, info.Derivable, info.Support)
	}
	return out
}

// TestBusEquivalence runs the identical publish/exchange scenario
// embedded (in-memory bus), durable (sharded file bus) and federated
// (HTTP bus against a BusServer) and asserts the resulting views, query
// answers, and provenance agree.
func TestBusEquivalence(t *testing.T) {
	sp := parseTestSpec(t)

	memSys, err := orchestra.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	memDigest := runScenario(t, memSys)

	fileBus, err := orchestra.OpenShardedFileBus(filepath.Join(t.TempDir(), "bus.shards"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer fileBus.Close()
	fileSys, err := orchestra.New(sp, orchestra.WithBus(fileBus))
	if err != nil {
		t.Fatal(err)
	}
	if fileDigest := runScenario(t, fileSys); fileDigest != memDigest {
		t.Errorf("bus implementations diverged:\n-- memory --\n%s\n-- sharded file --\n%s", memDigest, fileDigest)
	}

	srv := orchestra.NewBusServer()
	srv.ValidateAgainst(sp)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	httpSys, err := orchestra.New(sp, orchestra.WithBus(orchestra.NewHTTPBus(ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	httpDigest := runScenario(t, httpSys)

	if memDigest != httpDigest {
		t.Errorf("bus implementations diverged:\n-- memory --\n%s\n-- http --\n%s", memDigest, httpDigest)
	}
	if srv.Len() != 4 {
		t.Errorf("bus server holds %d publications, want 4", srv.Len())
	}

	// A second node sharing the HTTP bus rebuilds the same state from
	// scratch — the federation property.
	rebuilt, err := orchestra.New(sp, orchestra.WithBus(orchestra.NewHTTPBus(ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rebuilt.Exchange(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if d := digest(t, rebuilt, ""); d != memDigest {
		t.Errorf("rebuilt node diverged:\n%s\nwant:\n%s", d, memDigest)
	}
	pending, err := rebuilt.Pending(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if pending != 0 {
		t.Errorf("rebuilt node has %d pending publications, want 0", pending)
	}
}

// TestConcurrentExchange hammers one System from many goroutines —
// concurrent publishes, per-peer exchanges, queries, and global
// exchanges — and then checks that every view converged to the same
// instance. Run with -race.
func TestConcurrentExchange(t *testing.T) {
	sys, err := orchestra.New(parseTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const rounds = 8

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	publish := func(peer string, log orchestra.EditLog) {
		defer wg.Done()
		if err := sys.Publish(ctx, peer, log); err != nil {
			errs <- err
		}
	}
	exchange := func(owner string) {
		defer wg.Done()
		if _, err := sys.Exchange(ctx, owner); err != nil {
			errs <- err
		}
	}
	for i := 0; i < rounds; i++ {
		wg.Add(5)
		go publish("PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(i, i+1, i+2))})
		go publish("PBioSQL", orchestra.EditLog{orchestra.Ins("B", orchestra.MakeTuple(i, i+2))})
		go exchange("")
		go exchange("PGUS")
		go exchange("PBioSQL")
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.Query(ctx, "", "ans(x,y) :- B(x,y)", true); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Drain whatever is still pending, then all views must agree.
	if _, err := sys.ExchangeAll(ctx); err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, owner := range append([]string{""}, sys.Peers()...) {
		got := digest(t, sys, owner)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("view %q diverged:\n%s\nwant:\n%s", owner, got, want)
		}
		pending, err := sys.Pending(ctx, owner)
		if err != nil {
			t.Fatal(err)
		}
		if pending != 0 {
			t.Errorf("view %q still has %d pending publications", owner, pending)
		}
	}
}

// TestCancellation checks that a cancelled context aborts Publish,
// Exchange, and Query instead of running them to completion.
func TestCancellation(t *testing.T) {
	sys, err := orchestra.New(parseTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := sys.Publish(cancelled, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(4, 5, 6))}); err == nil {
		t.Error("Publish with cancelled context succeeded")
	}
	if _, err := sys.Exchange(cancelled, ""); err == nil {
		t.Error("Exchange with cancelled context succeeded")
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(cancelled, "", "ans(x,y) :- B(x,y)", false); err == nil {
		t.Error("Query with cancelled context succeeded")
	}
}

// countdownCtx is a context whose Err starts failing after the first n
// checks — it lets a test cancel deterministically in the middle of an
// exchange's propagation fixpoint rather than before it starts.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestExchangeRetryAfterMidApplyCancellation interrupts an exchange
// inside the propagation fixpoint (after the base edits committed) and
// checks that retrying repairs the view: the derived instances must
// match an uninterrupted run instead of silently missing the
// propagation of the interrupted publication.
func TestExchangeRetryAfterMidApplyCancellation(t *testing.T) {
	ctx := context.Background()
	logs := []struct {
		peer string
		log  orchestra.EditLog
	}{
		{"PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}},
		{"PBioSQL", orchestra.EditLog{orchestra.Ins("B", orchestra.MakeTuple(3, 5))}},
		{"PuBio", orchestra.EditLog{orchestra.Ins("U", orchestra.MakeTuple(2, 5))}},
	}
	build := func() *orchestra.System {
		sys, err := orchestra.New(parseTestSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range logs {
			if err := sys.Publish(ctx, l.peer, l.log); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}

	clean := build()
	if _, err := clean.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	want := digest(t, clean, "")

	interrupted := build()
	// Let the bus fetch pass, then cancel at the first fixpoint check.
	if _, err := interrupted.Exchange(&countdownCtx{Context: ctx, n: 1}, ""); err == nil {
		t.Fatal("mid-apply cancellation did not surface an error")
	}
	if _, err := interrupted.Exchange(ctx, ""); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if got := digest(t, interrupted, ""); got != want {
		t.Errorf("retried exchange diverged from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTrustOptionDoesNotMutateSpec checks that WithTrustFor builds the
// System over a copy: one parsed Spec can back several Systems with
// different trust configurations.
func TestTrustOptionDoesNotMutateSpec(t *testing.T) {
	sp := parseTestSpec(t)
	pol := orchestra.NewTrustPolicy("PuBio")
	pol.DistrustPeer("PGUS")
	trusting, err := orchestra.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	distrusting, err := orchestra.New(sp, orchestra.WithTrustFor("PuBio", pol))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Policy("PuBio") != nil {
		t.Fatal("WithTrustFor mutated the caller's spec")
	}
	ctx := context.Background()
	for _, sys := range []*orchestra.System{trusting, distrusting} {
		if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(3, 5, 2))}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Exchange(ctx, "PuBio"); err != nil {
			t.Fatal(err)
		}
	}
	full, err := trusting.Instance("PuBio", "U")
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := distrusting.Instance("PuBio", "U")
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) >= len(full) {
		t.Errorf("distrusting view has %d U rows, trusting has %d; want fewer", len(filtered), len(full))
	}
}
