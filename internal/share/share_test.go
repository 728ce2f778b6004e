package share

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/logstore"
	"orchestra/internal/obs"
	"orchestra/internal/schema"
	"orchestra/internal/tgd"
)

func testSpec(t *testing.T) *core.Spec {
	t.Helper()
	u := schema.NewUniverse()
	p := schema.NewPeer("P")
	p.AddRelation("A", schema.Column{Name: "x", Type: schema.TypeInt})
	q := schema.NewPeer("Q")
	q.AddRelation("B", schema.Column{Name: "x", Type: schema.TypeInt})
	u.AddPeer(p)
	u.AddPeer(q)
	spec, err := core.NewSpec(u, []*tgd.TGD{tgd.MustParse("m: A(x) -> B(x)")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestPublishAndFetch(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	bus := NewBus(ts.URL)
	ctx := context.Background()

	if err := bus.Append(ctx, "P", core.EditLog{core.Ins("A", core.MakeTuple(1))}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Append(ctx, "Q", core.EditLog{
		core.Ins("B", core.MakeTuple(2)),
		core.Del("B", core.MakeTuple(3)),
	}); err != nil {
		t.Fatal(err)
	}
	if srv.Len() != 2 {
		t.Fatalf("server has %d publications", srv.Len())
	}

	deltas, cursor, err := bus.Fetch(ctx, core.Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	if cursor.Total() != 2 || len(deltas) != 2 || deltas[0].Pub.Peer != "P" || deltas[1].Pub.Peer != "Q" ||
		deltas[0].Pos != 1 || deltas[1].Pos != 1 {
		t.Fatalf("fetch: cursor=%v deltas=%v", cursor, deltas)
	}
	if log := deltas[1].Pub.Log; len(log) != 2 || log[1].Insert {
		t.Fatalf("second log: %v", log)
	}
	if h, err := bus.Horizon(ctx); err != nil || !h.Equal(cursor) {
		t.Fatalf("horizon %v, err %v, want %v", h, err, cursor)
	}
	// Incremental fetch from the cursor returns nothing new.
	deltas, cursor2, err := bus.Fetch(ctx, cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 || !cursor2.Equal(cursor) {
		t.Fatalf("incremental fetch: %v %v", deltas, cursor2)
	}
}

// Two nodes stay consistent by exchanging through the service — the
// paper's operating mode with a central publication store. Each node
// holds its own view and reaches the service over its own bus client.
func TestTwoNodeSync(t *testing.T) {
	spec := testSpec(t)
	srv := NewServer()
	srv.Validate = SpecValidator(spec)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()

	bus1, bus2 := NewBus(ts.URL), NewBus(ts.URL)

	// Node 1's peer P inserts and publishes.
	logP := core.EditLog{core.Ins("A", core.MakeTuple(1)), core.Ins("A", core.MakeTuple(2))}
	if err := core.PublishTo(ctx, bus1, spec, "P", logP); err != nil {
		t.Fatal(err)
	}
	// Node 2's peer Q publishes a curation deletion of imported data.
	logQ := core.EditLog{core.Del("B", core.MakeTuple(1))}
	if err := core.PublishTo(ctx, bus2, spec, "Q", logQ); err != nil {
		t.Fatal(err)
	}

	// Both nodes exchange.
	views := make(map[string]*core.View)
	cursors := make(map[string]core.Cursor)
	for name, bus := range map[string]*Bus{"node1": bus1, "node2": bus2} {
		v, err := core.NewView(spec, "", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := core.ExchangeInto(ctx, bus, v, core.Cursor{}, core.DeleteProvenance)
		if err != nil {
			t.Fatal(err)
		}
		views[name], cursors[name] = v, next
	}
	if c1, c2 := cursors["node1"], cursors["node2"]; c1.Total() != 2 || !c1.Equal(c2) {
		t.Fatalf("cursors: %v %v", c1, c2)
	}
	// B = {2}: A(1),A(2) mapped in, B(1) rejected by Q's curation.
	for name, v := range views {
		b := v.Instance("B")
		if b.Len() != 1 || !b.Contains(core.MakeTuple(2)) {
			t.Fatalf("%s B instance:\n%s", name, v.DB().Dump())
		}
	}
}

func TestServerValidation(t *testing.T) {
	spec := testSpec(t)
	srv := NewServer()
	srv.Validate = SpecValidator(spec)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Cross-peer edit rejected with 422.
	err := NewBus(ts.URL).Append(context.Background(), "P", core.EditLog{core.Ins("B", core.MakeTuple(1))})
	if err == nil || !strings.Contains(err.Error(), "422") {
		t.Fatalf("cross-peer publish: %v", err)
	}
	if srv.Len() != 0 {
		t.Fatal("invalid publication stored")
	}
}

func TestServerPersistsThroughLogstore(t *testing.T) {
	store, err := logstore.Open(t.TempDir() + "/pub.log")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer()
	srv.Persist = store.AppendTraced
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := NewBus(ts.URL).Append(context.Background(), "P", core.EditLog{core.Ins("A", core.MakeTuple(5))}); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d records", store.Len())
	}
	pubs, err := store.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if pubs[0].Peer != "P" || len(pubs[0].Log) != 1 {
		t.Fatalf("persisted publication: %+v", pubs[0])
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status := func(resp *http.Response, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(body string) int {
		return status(http.Post(ts.URL+"/publish", "application/json", strings.NewReader(body)))
	}
	get := func(path string) int { return status(http.Get(ts.URL + path)) }

	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"unknown path", get("/nope"), http.StatusNotFound},
		{"the removed scalar endpoint", get("/since?cursor=0"), http.StatusNotFound},
		{"bad json", post("{"), http.StatusBadRequest},
		{"bad base64 key", post(`{"peer":"P","edits":[{"op":"+","rel":"A","key":"!!!"}]}`), http.StatusBadRequest},
		{"bad op", post(`{"peer":"P","edits":[{"op":"?","rel":"A","key":""}]}`), http.StatusBadRequest},
		{"bad fetch cursor", get("/fetch?cursor=potato"), http.StatusBadRequest},
		{"bare-total fetch cursor", get("/fetch?cursor=v1:7"), http.StatusBadRequest},
		{"bare-total watch cursor", get("/watch?cursor=v1:7"), http.StatusBadRequest},
	} {
		if c.got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, c.got, c.want)
		}
	}

	// Cursor beyond the end clamps.
	bus := NewBus(ts.URL)
	if err := bus.Append(context.Background(), "P", core.EditLog{core.Ins("A", core.MakeTuple(1))}); err != nil {
		t.Fatal(err)
	}
	beyond, err := core.ParseCursor("v1:999;P=999")
	if err != nil {
		t.Fatal(err)
	}
	deltas, cursor, err := bus.Fetch(context.Background(), beyond)
	if err != nil || len(deltas) != 0 || cursor.Total() != 1 {
		t.Fatalf("over-cursor fetch: %v %v %v", deltas, cursor, err)
	}
}

// TestPublishAcknowledgesOwnPosition pins the publish response's cursor
// to the publication's own position: N concurrent publishes are
// acknowledged with exactly 1..N, and each PubRecord carries the same
// position its publisher was told.
func TestPublishAcknowledgesOwnPosition(t *testing.T) {
	srv := NewServer()
	tracer := obs.NewPubTracer(64)
	srv.SetPubTracer(tracer)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 32
	type ack struct {
		Cursor int    `json:"cursor"`
		Trace  string `json:"trace"`
	}
	acks := make([]ack, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/publish", "application/json",
				strings.NewReader(fmt.Sprintf(`{"peer":"P%d","edits":[]}`, i%4)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&acks[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[int]bool, n)
	for _, a := range acks {
		if a.Cursor < 1 || a.Cursor > n || seen[a.Cursor] {
			t.Fatalf("acknowledged cursors are not a permutation of 1..%d: %+v", n, acks)
		}
		seen[a.Cursor] = true
		if rec := tracer.Find(a.Trace); rec == nil || rec.Cursor != a.Cursor {
			t.Fatalf("PubRecord for trace %s = %+v, publisher was told cursor %d", a.Trace, rec, a.Cursor)
		}
	}
}

// TestPositionlessDeltaRejected: a /fetch delta or /watch line whose
// shard position is missing or zero is malformed input, not a delta
// with an unknown position.
func TestPositionlessDeltaRejected(t *testing.T) {
	const delta = `{"peer":"P","pos":0,"edits":[]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/fetch":
			fmt.Fprintf(w, `{"cursor":"v1:1;P=1","deltas":[%s]}`, delta)
		case "/watch":
			fmt.Fprintln(w, delta)
		}
	}))
	defer ts.Close()
	bus := NewBus(ts.URL)
	ctx := context.Background()

	if deltas, _, err := bus.Fetch(ctx, core.Cursor{}); err == nil {
		t.Fatalf("Fetch accepted a pos-0 delta: %v", deltas)
	}
	deliver := func(d core.Delta) bool {
		t.Errorf("watch delivered a pos-0 delta: %+v", d)
		return true
	}
	if cur, streamed, err := bus.watchOnce(ctx, core.Cursor{}, deliver, make(chan struct{})); err == nil || streamed || !cur.IsZero() {
		t.Fatalf("watchOnce: cursor %v, streamed %v, err %v", cur, streamed, err)
	}
}

// TestTraceparentRoundTrip proves a publication's lineage id survives
// the HTTP hop: the Bus sends it as a traceparent header, the server
// stores it, Fetch hands it back, and the server-side PubTracer
// records the publish under the same id.
func TestTraceparentRoundTrip(t *testing.T) {
	srv := NewServer()
	tracer := obs.NewPubTracer(8)
	srv.SetPubTracer(tracer)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	bus := NewBus(ts.URL)

	ctx, sc := obs.EnsureSpan(context.Background())
	if err := bus.Append(ctx, "P", core.EditLog{core.Ins("A", core.MakeTuple(1))}); err != nil {
		t.Fatal(err)
	}
	// A publish without a span on its context gets a server-minted id.
	if err := bus.Append(context.Background(), "Q", core.EditLog{core.Ins("B", core.MakeTuple(2))}); err != nil {
		t.Fatal(err)
	}

	deltas, cursor, err := bus.Fetch(context.Background(), core.Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	if cursor.Total() != 2 || len(deltas) != 2 {
		t.Fatalf("fetch: cursor=%v deltas=%v", cursor, deltas)
	}
	pubs := []core.Publication{deltas[0].Pub, deltas[1].Pub}
	if pubs[0].TraceID != sc.TraceID {
		t.Fatalf("fetched trace id %q, want the caller's %q", pubs[0].TraceID, sc.TraceID)
	}
	minted := obs.SpanContext{TraceID: pubs[1].TraceID, SpanID: "0123456789abcdef"}
	if !minted.Valid() {
		t.Fatalf("server-minted trace id %q is not a valid 128-bit hex id", pubs[1].TraceID)
	}
	if pubs[1].TraceID == sc.TraceID {
		t.Fatal("second publication reused the first trace id")
	}

	// The server-side publish ring indexed the record by trace id.
	rec := tracer.Find(sc.TraceID)
	if rec == nil || rec.Peer != "P" || rec.Cursor != 1 || rec.Edits != 1 {
		t.Fatalf("PubTracer.Find(%q) = %+v", sc.TraceID, rec)
	}
}
