package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"orchestra"
)

const daemonTestSpec = `
peer PGUS    { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
mapping m1: G(i,c,n) -> B(i,n)
`

// logCapture collects the daemon's JSON log records for assertions (it
// is the slog handler's io.Writer; each Write is one record).
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) Write(p []byte) (int, error) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, strings.TrimRight(string(p), "\n"))
	lc.mu.Unlock()
	return len(p), nil
}

func (lc *logCapture) joined() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return strings.Join(lc.lines, "\n")
}

// line returns the first captured record containing every substring.
func (lc *logCapture) line(subs ...string) string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
outer:
	for _, l := range lc.lines {
		for _, s := range subs {
			if !strings.Contains(l, s) {
				continue outer
			}
		}
		return l
	}
	return ""
}

// startDaemon builds a durable all-views daemon on temp storage and a
// test server over its handler, wiring the System through the test
// server's URL exactly as main wires it through its own listener.
func startDaemon(t *testing.T, cfg daemonConfig) (*daemon, *httptest.Server, *logCapture) {
	t.Helper()
	parsed, err := orchestra.ParseSpecString(daemonTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	lc := &logCapture{}
	cfg.logger = slog.New(slog.NewJSONHandler(lc, nil))
	if cfg.storePath == "" {
		cfg.storePath = filepath.Join(t.TempDir(), "pubs.olg")
	}
	if cfg.refresh == 0 {
		cfg.refresh = time.Hour // tests drive exchanges explicitly
	}
	d, err := newDaemon(cfg, parsed)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler)
	t.Cleanup(ts.Close)
	if cfg.statePath != "" {
		if err := d.enableViews(ts.URL); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.sys.Close() })
	}
	t.Cleanup(func() { d.srv.Close() })
	return d, ts, lc
}

func get(t *testing.T, url string, header ...string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthAndReadiness(t *testing.T) {
	ctx := context.Background()
	d, ts, _ := startDaemon(t, daemonConfig{statePath: t.TempDir(), viewOwner: "all"})

	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok 0 publications") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	// Before the first exchange the daemon is alive but not ready.
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "fail exchange: first exchange pending") {
		t.Fatalf("readyz before exchange: %d %q", code, body)
	}
	if err := d.exchangeOnce(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz after exchange: %d %q", code, body)
	}
	for _, want := range []string{"ok bus:", "ok state:", "ok exchange: views warm"} {
		if !strings.Contains(body, want) {
			t.Fatalf("readyz body missing %q:\n%s", want, body)
		}
	}
}

func TestReadyzServeOnly(t *testing.T) {
	// Without -state there are no views to warm: ready immediately.
	_, ts, _ := startDaemon(t, daemonConfig{})
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ok bus:") {
		t.Fatalf("serve-only readyz: %d %q", code, body)
	}
}

func TestMetricsUnderPublishLoad(t *testing.T) {
	ctx := context.Background()
	d, ts, _ := startDaemon(t, daemonConfig{statePath: t.TempDir(), viewOwner: "all"})

	bus := orchestra.NewHTTPBus(ts.URL)
	for i := 0; i < 5; i++ {
		if err := bus.Append(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(i, i, i))}); err != nil {
			t.Fatal(err)
		}
	}
	// One insert+delete pair: net-effect cancellation becomes non-zero.
	if err := bus.Append(ctx, "PGUS", orchestra.EditLog{
		orchestra.Ins("G", orchestra.MakeTuple(9, 9, 9)),
		orchestra.Del("G", orchestra.MakeTuple(9, 9, 9)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.exchangeOnce(ctx); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	// The acceptance quartet: pass-duration histogram, per-view bus
	// lag, cancellation ratio, checkpoint age — plus publish/append/HTTP
	// telemetry, all non-zero where the load implies it.
	for _, want := range []string{
		"orchestra_exchange_pass_duration_seconds_count",
		`orchestra_bus_lag{view="(global)"} 0`,
		`orchestra_bus_lag{view="PGUS"} 0`,
		"orchestra_coalesce_cancellation_ratio",
		"orchestra_checkpoint_age_seconds",
		"orchestra_exchange_publications_total",
		"orchestra_publish_accepted_total 6",
		"orchestra_bus_append_bytes_total",
		"orchestra_http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// The pass consumed all six publications across the three views.
	if !strings.Contains(body, "orchestra_exchange_passes_total{kind=\"exchange_all\"}") {
		t.Fatalf("metrics missing exchange_all pass counter:\n%s", body)
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "orchestra_coalesce_cancellation_ratio ") {
			if strings.TrimPrefix(line, "orchestra_coalesce_cancellation_ratio ") == "0" {
				t.Fatalf("cancellation ratio stayed zero despite insert+delete pair:\n%s", body)
			}
		}
	}
}

func TestTraceEndpointGating(t *testing.T) {
	ctx := context.Background()

	// Without -admin-token the endpoint is disabled outright.
	_, tsOpen, _ := startDaemon(t, daemonConfig{})
	if code, body := get(t, tsOpen.URL+"/debug/trace"); code != http.StatusForbidden || !strings.Contains(body, "admin-token") {
		t.Fatalf("ungated trace: %d %q", code, body)
	}

	d, ts, _ := startDaemon(t, daemonConfig{statePath: t.TempDir(), viewOwner: "all", adminToken: "sekrit"})
	if code, _ := get(t, ts.URL+"/debug/trace"); code != http.StatusUnauthorized {
		t.Fatalf("missing token: %d", code)
	}
	if code, _ := get(t, ts.URL+"/debug/trace", "Authorization", "Bearer wrong"); code != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d", code)
	}
	if code, _ := get(t, ts.URL+"/debug/trace?last=0", "Authorization", "Bearer sekrit"); code != http.StatusBadRequest {
		t.Fatalf("last=0 accepted: %d", code)
	}

	bus := orchestra.NewHTTPBus(ts.URL)
	if err := bus.Append(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if err := d.exchangeOnce(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/debug/trace?last=1", "Authorization", "Bearer sekrit")
	if code != http.StatusOK {
		t.Fatalf("trace: %d %q", code, body)
	}
	var entries []struct {
		Pass struct {
			Kind   string `json:"kind"`
			WallNS int64  `json:"wall_ns"`
			Views  []struct {
				View   string `json:"view"`
				WallNS int64  `json:"wall_ns"`
			} `json:"views"`
		} `json:"pass"`
		Spans struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, body)
	}
	if len(entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Pass.Kind != "exchange_all" || e.Spans.Name != "pass:exchange_all" {
		t.Fatalf("pass kind %q / span %q", e.Pass.Kind, e.Spans.Name)
	}
	if len(e.Pass.Views) != 3 || len(e.Spans.Children) != 3 {
		t.Fatalf("want 3 view passes (PGUS, PBioSQL, global), got %d/%d", len(e.Pass.Views), len(e.Spans.Children))
	}
}

func TestPubTraceEndpoint(t *testing.T) {
	ctx := context.Background()
	d, ts, _ := startDaemon(t, daemonConfig{statePath: t.TempDir(), viewOwner: "all", adminToken: "sekrit"})

	ctx, traceID := orchestra.NewTraceContext(ctx)
	bus := orchestra.NewHTTPBus(ts.URL)
	if err := bus.Append(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if err := d.exchangeOnce(ctx); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, ts.URL+"/debug/trace?pub="+traceID, "Authorization", "Bearer sekrit")
	if code != http.StatusOK {
		t.Fatalf("pub trace: %d %q", code, body)
	}
	var out struct {
		TraceID string `json:"trace_id"`
		Publish *struct {
			Peer   string `json:"peer"`
			Cursor int    `json:"cursor"`
			Edits  int    `json:"edits"`
		} `json:"publish"`
		Passes []struct {
			Pass struct {
				Kind  string `json:"kind"`
				Views []struct {
					View     string   `json:"view"`
					TraceIDs []string `json:"trace_ids"`
				} `json:"views"`
			} `json:"pass"`
		} `json:"passes"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("pub trace JSON: %v\n%s", err, body)
	}
	if out.TraceID != traceID {
		t.Fatalf("trace id %q, want %q", out.TraceID, traceID)
	}
	// The publish landed on this node, so its publish-side record exists.
	if out.Publish == nil || out.Publish.Peer != "PGUS" || out.Publish.Cursor != 1 || out.Publish.Edits != 1 {
		t.Fatalf("publish record wrong: %s", body)
	}
	// The exchange pass that applied the publication is linked by id.
	if len(out.Passes) == 0 {
		t.Fatalf("no passes touched trace %s:\n%s", traceID, body)
	}
	// An id nobody published yields an empty lineage, not an error.
	code, body = get(t, ts.URL+"/debug/trace?pub=ffffffffffffffffffffffffffffffff", "Authorization", "Bearer sekrit")
	if code != http.StatusOK || !strings.Contains(body, `"passes": []`) {
		t.Fatalf("unknown pub trace: %d %q", code, body)
	}
}

func TestPprofGating(t *testing.T) {
	// Without -admin-token the profiling surface is absent outright.
	_, tsOpen, _ := startDaemon(t, daemonConfig{})
	if code, _ := get(t, tsOpen.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("ungated pprof index: %d", code)
	}

	_, ts, _ := startDaemon(t, daemonConfig{adminToken: "sekrit"})
	if code, _ := get(t, ts.URL+"/debug/pprof/"); code != http.StatusUnauthorized {
		t.Fatalf("pprof without token: %d", code)
	}
	if code, _ := get(t, ts.URL+"/debug/pprof/", "Authorization", "Bearer wrong"); code != http.StatusUnauthorized {
		t.Fatalf("pprof wrong token: %d", code)
	}
	code, body := get(t, ts.URL+"/debug/pprof/", "Authorization", "Bearer sekrit")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof with token: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/debug/pprof/goroutine?debug=1", "Authorization", "Bearer sekrit"); code != http.StatusOK {
		t.Fatalf("goroutine profile with token: %d", code)
	}
}

func TestSlowQueryEndpoint(t *testing.T) {
	ctx := context.Background()
	// 1ns threshold: every query is a slow query.
	d, ts, _ := startDaemon(t, daemonConfig{statePath: t.TempDir(), viewOwner: "all",
		adminToken: "sekrit", slowQuery: time.Nanosecond})
	if err := d.exchangeOnce(ctx); err != nil {
		t.Fatal(err)
	}

	if code, _ := get(t, ts.URL+"/debug/slowqueries"); code != http.StatusUnauthorized {
		t.Fatalf("slowqueries without token: %d", code)
	}

	if code, body := get(t, ts.URL+"/query?q="+`ans(i,n)+:-+G(i,c,n)`); code != http.StatusOK {
		t.Fatalf("query: %d %q", code, body)
	}
	code, body := get(t, ts.URL+"/debug/slowqueries", "Authorization", "Bearer sekrit")
	if code != http.StatusOK {
		t.Fatalf("slowqueries: %d %q", code, body)
	}
	var records []struct {
		Query   string `json:"query"`
		Outcome string `json:"outcome"`
		WallNS  int64  `json:"wall_ns"`
	}
	if err := json.Unmarshal([]byte(body), &records); err != nil {
		t.Fatalf("slowqueries JSON: %v\n%s", err, body)
	}
	if len(records) == 0 {
		t.Fatalf("no slow queries captured:\n%s", body)
	}
	r := records[0]
	if !strings.Contains(r.Query, "G(i,c,n)") || r.Outcome == "" || r.WallNS <= 0 {
		t.Fatalf("slow-query record wrong: %+v", r)
	}
	// The per-query latency histograms observed the same query.
	if code, body := get(t, ts.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "orchestra_query_duration_seconds_count") {
		t.Fatalf("metrics missing query histogram: %d\n%s", code, body)
	}
}

func TestInstanceEdgeCases(t *testing.T) {
	ctx := context.Background()
	d, ts, _ := startDaemon(t, daemonConfig{statePath: t.TempDir(), viewOwner: "all"})

	// Exchange over the empty bus first: a maintained view whose
	// instance is simply empty is a 200 with zero rows, not an error.
	if err := d.exchangeOnce(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/instance?rel=B&owner=PBioSQL")
	if code != http.StatusOK || !strings.Contains(body, "B (0 rows)") {
		t.Fatalf("empty instance: %d %q", code, body)
	}

	if code, _ := get(t, ts.URL+"/instance"); code != http.StatusBadRequest {
		t.Fatalf("missing rel: %d", code)
	}
	// Unknown owner: the System has no such peer.
	if code, body := get(t, ts.URL+"/instance?rel=G&owner=PNope"); code != http.StatusBadRequest {
		t.Fatalf("unknown owner: %d %q", code, body)
	}

	bus := orchestra.NewHTTPBus(ts.URL)
	if err := bus.Append(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if err := d.exchangeOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, ts.URL+"/instance?rel=B&owner=PBioSQL"); code != http.StatusOK || !strings.Contains(body, "B (1 rows)") {
		t.Fatalf("derived instance: %d %q", code, body)
	}
}

func TestInstanceSingleViewRejectsOtherOwners(t *testing.T) {
	ctx := context.Background()
	d, ts, _ := startDaemon(t, daemonConfig{statePath: t.TempDir(), viewOwner: ""})
	if err := d.exchangeOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, ts.URL+"/instance?rel=B&owner=PBioSQL"); code != http.StatusNotFound || !strings.Contains(body, "not maintained") {
		t.Fatalf("other owner on single-view daemon: %d %q", code, body)
	}
}

func TestRequestLogging(t *testing.T) {
	_, ts, lc := startDaemon(t, daemonConfig{})
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("nope: %d", code)
	}
	healthLine := lc.line(`"path":"/healthz"`, `"status":200`, `"method":"GET"`)
	if healthLine == "" {
		t.Fatalf("healthz request not logged as JSON:\n%s", lc.joined())
	}
	// The access record is structured and carries a request id.
	var rec map[string]any
	if err := json.Unmarshal([]byte(healthLine), &rec); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, healthLine)
	}
	for _, key := range []string{"dur", "peer", "request_id"} {
		if _, ok := rec[key]; !ok {
			t.Fatalf("access record missing %q:\n%s", key, healthLine)
		}
	}
	if lc.line(`"path":"/nope"`, `"status":404`) == "" {
		t.Fatalf("404 not logged:\n%s", lc.joined())
	}
}

func TestRequestLogCarriesTraceID(t *testing.T) {
	ctx := context.Background()
	_, ts, lc := startDaemon(t, daemonConfig{})
	ctx, traceID := orchestra.NewTraceContext(ctx)
	bus := orchestra.NewHTTPBus(ts.URL)
	if err := bus.Append(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if lc.line(`"path":"/publish"`, `"trace_id":"`+traceID+`"`) == "" {
		t.Fatalf("publish access record missing trace id %s:\n%s", traceID, lc.joined())
	}
}

// TestLocalPublishWakesOnlyPush pins one wake-up per local publication:
// the push subscription (System.StartPush) already delivers every
// publication this daemon's own service accepts, so after the warming
// pass no exchange_all pass and no bus fetch may run until the -refresh
// ticker fires — every view imports each publication from its push
// buffer.
func TestLocalPublishWakesOnlyPush(t *testing.T) {
	d, ts, lc := startDaemon(t, daemonConfig{statePath: t.TempDir(), viewOwner: "all"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.runExchangeLoop(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	waitFor(t, "push streaming", func() bool { return lc.line("push streaming enabled") != "" })
	const allPasses = `orchestra_exchange_passes_total{kind="exchange_all"}`
	const fetches = "orchestra_exchange_fetch_calls_total"
	warmPasses, warmFetches := metric(t, ts, allPasses), metric(t, ts, fetches)

	const n, views = 5, 3 // PGUS, PBioSQL and the global view
	bus := orchestra.NewHTTPBus(ts.URL)
	for i := 1; i <= n; i++ {
		if err := bus.Append(context.Background(), "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(i, i, i))}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, fmt.Sprintf("publication %d in every view", i), func() bool {
			return metric(t, ts, "orchestra_exchange_publications_total") == float64(views*i)
		})
	}
	if got := metric(t, ts, allPasses); got != warmPasses {
		t.Fatalf("%s = %v after %d local publishes, want the post-warm-up %v", allPasses, got, n, warmPasses)
	}
	if got := metric(t, ts, fetches); got != warmFetches {
		t.Fatalf("%s = %v after %d local publishes, want the post-warm-up %v", fetches, got, n, warmFetches)
	}
	if got := metric(t, ts, "orchestra_exchange_push_deltas_total"); got != float64(views*n) {
		t.Fatalf("push deltas = %v, want %d", got, views*n)
	}
}

// metric reads one series' value off the daemon's /metrics page.
func metric(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	_, body := get(t, ts.URL+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("metrics missing %s:\n%s", series, body)
	return 0
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
