package orchestra_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"orchestra"
)

// waitDrained polls until the owner's view has no pending publications
// (push delivery advanced the cursor to the horizon) or the deadline
// passes. Pending compares the applied cursor against the bus horizon,
// so returning means the pushed publications were actually imported.
func waitDrained(t *testing.T, sys *orchestra.System, owner string) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		pending, err := sys.Pending(ctx, owner)
		if err != nil {
			t.Fatal(err)
		}
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("view %q still has %d pending publications after 10s of push delivery", owner, pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runPushScenario drives the identical lifecycle as runScenario but
// lets push delivery import the publications: no Exchange call after
// the initial view materialization — convergence comes from StartPush.
func runPushScenario(t *testing.T, sys *orchestra.System) string {
	t.Helper()
	ctx := context.Background()
	// Materialize the global view first: push buffers deltas only for
	// views that exist, and the scenario's digest reads the global view.
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	stop, err := sys.StartPush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
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
	waitDrained(t, sys, "")
	if err := sys.Publish(ctx, "PBioSQL", orchestra.EditLog{orchestra.Del("B", orchestra.MakeTuple(3, 2))}); err != nil {
		t.Fatalf("publish deletion: %v", err)
	}
	waitDrained(t, sys, "")
	return digest(t, sys, "")
}

// TestPushEquivalence extends the bus-equivalence property to the
// subscription path: the scenario imported via push-delivered deltas
// must be observationally identical — instances, query answers (null-id
// structure included), provenance — to the pull replay, on both the
// in-process bus and the HTTP bus.
func TestPushEquivalence(t *testing.T) {
	sp := parseTestSpec(t)

	pullSys, err := orchestra.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	pullDigest := runScenario(t, pullSys)

	memSys, err := orchestra.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	if d := runPushScenario(t, memSys); d != pullDigest {
		t.Errorf("memory bus: push diverged from pull:\n-- push --\n%s\n-- pull --\n%s", d, pullDigest)
	}

	srv := orchestra.NewBusServer()
	srv.ValidateAgainst(sp)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	httpSys, err := orchestra.New(sp, orchestra.WithBus(orchestra.NewHTTPBus(ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	if d := runPushScenario(t, httpSys); d != pullDigest {
		t.Errorf("http bus: push diverged from pull:\n-- push --\n%s\n-- pull --\n%s", d, pullDigest)
	}

	// Rejections agree on the push path too: an illegal cross-peer edit
	// is refused before it reaches any bus.
	for name, sys := range map[string]*orchestra.System{"memory": memSys, "http": httpSys} {
		if err := sys.Publish(context.Background(), "PuBio", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(7, 7, 7))}); err == nil {
			t.Errorf("%s bus: illegal publish accepted", name)
		}
	}
}

// counterValue extracts an unlabeled counter's value from a metrics
// exposition.
func counterValue(t *testing.T, o *orchestra.Observability, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	return 0
}

// TestStartPushImportsWithoutRefetch pins the point of the push path:
// a publication streamed to a subscribed follower is imported from the
// delivered deltas alone — the exchange fetch counters do not move.
func TestStartPushImportsWithoutRefetch(t *testing.T) {
	ctx := context.Background()
	o := orchestra.NewObservability(8)
	sys, err := orchestra.New(parseTestSpec(t), orchestra.WithObservability(o))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	stop, err := sys.StartPush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	fetchedBefore := counterValue(t, o, "orchestra_exchange_fetch_publications_total")
	if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(ctx, "PBioSQL", orchestra.EditLog{orchestra.Ins("B", orchestra.MakeTuple(1, 3))}); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, sys, "")

	if got := counterValue(t, o, "orchestra_exchange_push_deltas_total"); got < 2 {
		t.Errorf("push_deltas_total = %v, want >= 2", got)
	}
	if got := counterValue(t, o, "orchestra_exchange_fetch_publications_total"); got != fetchedBefore {
		t.Errorf("fetch_publications_total moved %v -> %v; push import refetched the log", fetchedBefore, got)
	}
	rows, err := sys.Instance("", "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Error("pushed publication not materialized in the view")
	}
}

// pullOnlyBus is a bus without the BusWatcher capability: embedding the
// interface hides MemoryBus's Subscribe.
type pullOnlyBus struct{ orchestra.PublicationBus }

// TestStartPushUnsupportedBus: a pull-only bus is detected at StartPush
// time; the system stays fully functional on the polling path.
func TestStartPushUnsupportedBus(t *testing.T) {
	ctx := context.Background()
	sys, err := orchestra.New(parseTestSpec(t),
		orchestra.WithBus(pullOnlyBus{orchestra.NewMemoryBus()}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StartPush(ctx); err == nil {
		t.Fatal("StartPush on a pull-only bus must report the missing capability")
	}
	if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	rows, err := sys.Instance("", "G")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("polling path materialized %d rows, want 1", len(rows))
	}
}
