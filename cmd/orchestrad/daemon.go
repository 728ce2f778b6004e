package main

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orchestra"
	"orchestra/internal/obs"
)

// daemonConfig collects orchestrad's knobs in testable form (main
// fills it from flags).
type daemonConfig struct {
	storePath  string
	statePath  string
	viewOwner  string // "" = global view, "all" = every peer view plus the global one
	refresh    time.Duration
	exchPar    int
	adminToken string
	traceCap   int
	// busURL points the maintained views at another node's publication
	// service (-bus); empty exchanges through the daemon's own bus.
	busURL string
	// profileThreshold arms automatic CPU-profile capture: an exchange
	// pass slower than this profiles the next pass into the state
	// directory (0 disables; see profile.go).
	profileThreshold time.Duration
	// slowQuery overrides the slow-query capture threshold (-slow-query;
	// 0 keeps the library default of 250ms).
	slowQuery time.Duration
	// logger receives one structured record per request from the logging
	// middleware and the daemon's own progress messages (default: JSON
	// lines to stderr).
	logger *slog.Logger
}

// daemon is the orchestrad process state: the publication service, the
// optional durable view System, the operations plane, and the HTTP
// surface. Construction (newDaemon) wires everything that does not
// need a live listener; enableViews attaches the durable System once
// the daemon's own bus URL is known.
type daemon struct {
	cfg    daemonConfig
	srv    *orchestra.BusServer
	obs    *orchestra.Observability
	sys    *orchestra.System // nil without -state
	parsed *orchestra.SpecFile

	allViews     bool
	defaultOwner string

	// prof is the automatic CPU profiler (nil unless -profile-threshold
	// and -state are set); see profile.go.
	prof *autoProfiler

	mux *http.ServeMux
	// handler is mux wrapped in the request-logging middleware; serve
	// this, not mux.
	handler http.Handler

	start time.Time
	// ready flips once the first exchange pass has completed (true from
	// the start for a serve-only daemon, which has no views to warm).
	ready atomic.Bool
	// globalOnce materializes the global view before the first "-view
	// all" pass — ExchangeAll only exchanges views that exist.
	globalOnce sync.Once
}

// newDaemon builds the publication service and the HTTP surface:
// the wire protocol at /, /healthz, /readyz, /metrics, and the
// admin-gated /debug/trace, /debug/slowqueries, and /debug/pprof.
// parsed may be nil (no -spec).
func newDaemon(cfg daemonConfig, parsed *orchestra.SpecFile) (*daemon, error) {
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	d := &daemon{
		cfg:          cfg,
		srv:          orchestra.NewBusServer(),
		obs:          orchestra.NewObservability(cfg.traceCap),
		parsed:       parsed,
		allViews:     cfg.viewOwner == "all",
		defaultOwner: cfg.viewOwner,
		mux:          http.NewServeMux(),
		start:        time.Now(),
	}
	if d.allViews {
		d.defaultOwner = "" // /instance defaults to the global view
	}
	if parsed != nil {
		d.srv.ValidateAgainst(parsed.Spec)
	}
	d.srv.EnableMetrics(d.obs)
	if cfg.storePath != "" {
		reloaded, err := d.srv.PersistTo(cfg.storePath)
		if err != nil {
			return nil, err
		}
		d.cfg.logger.Info("persisting publications", "path", cfg.storePath, "reloaded", reloaded)
	}
	if cfg.statePath == "" {
		d.ready.Store(true)
	}

	d.mux.Handle("/", d.srv)
	d.mux.HandleFunc("/healthz", d.handleHealthz)
	d.mux.HandleFunc("/readyz", d.handleReadyz)
	d.mux.HandleFunc("/metrics", d.handleMetrics)
	d.mux.HandleFunc("/debug/trace", d.handleTrace)
	d.mux.HandleFunc("/debug/slowqueries", d.handleSlowQueries)
	d.registerPprof()
	d.handler = d.logRequests(d.mux)
	return d, nil
}

// registerPprof mounts net/http/pprof behind the admin token. The
// profiling surface exposes heap contents and symbol tables, so without
// -admin-token it is absent outright (404), and with one it demands the
// Bearer credential (401 otherwise).
func (d *daemon) registerPprof() {
	gate := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if d.cfg.adminToken == "" {
				http.NotFound(w, r)
				return
			}
			if !d.bearerAuthorized(w, r) {
				return
			}
			h(w, r)
		}
	}
	d.mux.HandleFunc("/debug/pprof/", gate(pprof.Index))
	d.mux.HandleFunc("/debug/pprof/cmdline", gate(pprof.Cmdline))
	d.mux.HandleFunc("/debug/pprof/profile", gate(pprof.Profile))
	d.mux.HandleFunc("/debug/pprof/symbol", gate(pprof.Symbol))
	d.mux.HandleFunc("/debug/pprof/trace", gate(pprof.Trace))
}

// bearerAuthorized checks the request's Authorization header against
// the configured admin token, writing the 401 itself on failure.
func (d *daemon) bearerAuthorized(w http.ResponseWriter, r *http.Request) bool {
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(d.cfg.adminToken)) != 1 {
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return false
	}
	return true
}

// enableViews attaches the durable view System, exchanging through the
// daemon's own publication service at busURL — or, with -bus, through
// another node's service — and mounts /instance. Call it after the
// listener exists (main) or against a test server.
func (d *daemon) enableViews(busURL string) error {
	if d.cfg.busURL != "" {
		busURL = d.cfg.busURL
	}
	opts := []orchestra.Option{
		orchestra.WithBus(orchestra.NewHTTPBus(busURL)),
		orchestra.WithPersistence(d.cfg.statePath),
		orchestra.WithExchangeParallelism(d.cfg.exchPar),
		orchestra.WithObservability(d.obs),
	}
	if d.cfg.slowQuery != 0 {
		opts = append(opts, orchestra.WithSlowQueryThreshold(d.cfg.slowQuery))
	}
	sys, err := orchestra.New(d.parsed.Spec, opts...)
	if err != nil {
		return err
	}
	d.sys = sys
	if views, err := sys.PersistedViews(); err == nil && len(views) > 0 {
		for _, vs := range views {
			d.cfg.logger.Info("recovered view", "view", vs.Owner, "cursor", vs.Cursor, "generation", vs.Generation)
		}
	}
	if d.cfg.profileThreshold > 0 {
		d.prof = newAutoProfiler(filepath.Join(d.cfg.statePath, "profiles"),
			d.cfg.profileThreshold, d.cfg.logger)
	}
	d.mux.HandleFunc("/instance", d.handleInstance)
	d.mux.HandleFunc("/query", d.handleQuery)
	return nil
}

// handleHealthz is the liveness probe: the process serves requests.
// It never consults the views — a daemon wedged on a long exchange is
// still alive. Readiness is /readyz's job.
func (d *daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintf(w, "ok %d publications uptime=%s\n", d.srv.Len(), time.Since(d.start).Round(time.Second))
}

// handleReadyz is the readiness probe: 200 only when the publication
// bus answers, the state directory (if any) is open, and the first
// exchange pass has completed, so the curated instances /instance
// serves reflect the bus. Each check prints one line; failures flip
// the status to 503.
func (d *daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type check struct {
		name   string
		ok     bool
		detail string
	}
	var checks []check
	if d.sys != nil {
		// Round-trips the daemon's own HTTP bus — the same path the
		// exchange loop uses.
		horizon, err := d.sys.BusHorizon(r.Context())
		if err != nil {
			checks = append(checks, check{"bus", false, err.Error()})
		} else {
			checks = append(checks, check{"bus", true, fmt.Sprintf("%d publications", horizon.Total())})
		}
		if _, err := d.sys.PersistedViews(); err != nil {
			checks = append(checks, check{"state", false, err.Error()})
		} else {
			checks = append(checks, check{"state", true, d.cfg.statePath})
		}
		if d.ready.Load() {
			checks = append(checks, check{"exchange", true, "views warm"})
		} else {
			checks = append(checks, check{"exchange", false, "first exchange pending"})
		}
	} else {
		checks = append(checks, check{"bus", true, fmt.Sprintf("%d publications", d.srv.Len())})
	}
	code := http.StatusOK
	for _, c := range checks {
		if !c.ok {
			code = http.StatusServiceUnavailable
			break
		}
	}
	w.WriteHeader(code)
	for _, c := range checks {
		state := "ok"
		if !c.ok {
			state = "fail"
		}
		fmt.Fprintf(w, "%s %s: %s\n", state, c.name, c.detail)
	}
}

// handleMetrics serves the registry in Prometheus text format. When a
// System runs, a Stats snapshot first refreshes the bus-horizon gauge
// so the per-view orchestra_bus_lag series are current as of this
// scrape, not as of the last exchange.
func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if d.sys != nil {
		if _, err := d.sys.Stats(r.Context()); err != nil {
			d.cfg.logger.Error("metrics stats refresh", "err", err)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := d.obs.Registry().WritePrometheus(w); err != nil {
		d.cfg.logger.Error("writing metrics", "err", err)
	}
}

// traceEntry is one /debug/trace element: the raw pass record plus its
// rendered span tree.
type traceEntry struct {
	Pass  *orchestra.ExchangeTrace `json:"pass"`
	Spans *orchestra.TraceSpan     `json:"spans"`
}

// handleTrace serves the most recent exchange pass traces as JSON,
// newest first (?last=N, default 1), or — with ?pub=<trace-id> — one
// publication's end-to-end lineage on this node. Traces expose tuple
// counts and relation names, so the endpoint is gated behind the admin
// bearer token: without -admin-token it is disabled outright.
func (d *daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	if d.cfg.adminToken == "" {
		http.Error(w, "trace endpoint disabled (run with -admin-token)", http.StatusForbidden)
		return
	}
	if !d.bearerAuthorized(w, r) {
		return
	}
	if pub := r.URL.Query().Get("pub"); pub != "" {
		d.servePubTrace(w, pub)
		return
	}
	last := 1
	if q := r.URL.Query().Get("last"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			http.Error(w, "last must be a positive integer", http.StatusBadRequest)
			return
		}
		last = n
	}
	entries := []traceEntry{} // render [] rather than null when empty
	for _, p := range d.obs.Tracer().Last(last) {
		entries = append(entries, traceEntry{Pass: p, Spans: p.SpanTree()})
	}
	d.writeJSON(w, entries)
}

// pubTrace is /debug/trace?pub=<id>: everything this node saw of one
// publication's trace — the publish-side record (when the publish
// landed here) and every exchange pass that applied it.
type pubTrace struct {
	TraceID string               `json:"trace_id"`
	Publish *orchestra.PubRecord `json:"publish,omitempty"`
	Passes  []traceEntry         `json:"passes"`
}

func (d *daemon) servePubTrace(w http.ResponseWriter, traceID string) {
	out := pubTrace{
		TraceID: traceID,
		Publish: d.obs.PubTracer().Find(traceID),
		Passes:  []traceEntry{},
	}
	// Walk every retained pass; the tracer caps retention, not us.
	for _, p := range d.obs.Tracer().Last(1 << 20) {
		if p.TouchesTrace(traceID) {
			out.Passes = append(out.Passes, traceEntry{Pass: p, Spans: p.SpanTree()})
		}
	}
	d.writeJSON(w, out)
}

// handleSlowQueries serves the captured slow-query records as JSON,
// newest first (?last=N, default 20). Records carry raw query text, so
// like /debug/trace the endpoint requires the admin bearer token.
func (d *daemon) handleSlowQueries(w http.ResponseWriter, r *http.Request) {
	if d.cfg.adminToken == "" {
		http.Error(w, "slow-query endpoint disabled (run with -admin-token)", http.StatusForbidden)
		return
	}
	if !d.bearerAuthorized(w, r) {
		return
	}
	last := 20
	if q := r.URL.Query().Get("last"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			http.Error(w, "last must be a positive integer", http.StatusBadRequest)
			return
		}
		last = n
	}
	list := d.obs.SlowQueries().Last(last)
	if list == nil {
		list = []orchestra.SlowQuery{}
	}
	d.writeJSON(w, list)
}

// writeJSON renders v indented with the content type set.
func (d *daemon) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		d.cfg.logger.Error("writing debug JSON", "err", err)
	}
}

// handleInstance serves a curated instance of the maintained view(s):
// GET /instance?rel=R[&owner=P].
func (d *daemon) handleInstance(w http.ResponseWriter, r *http.Request) {
	rel := r.URL.Query().Get("rel")
	if rel == "" {
		http.Error(w, "missing rel parameter", http.StatusBadRequest)
		return
	}
	owner := d.defaultOwner
	if o := r.URL.Query().Get("owner"); o != "" {
		if !d.allViews && o != d.cfg.viewOwner {
			http.Error(w, fmt.Sprintf("view %q is not maintained by this daemon (running with -view %q)", o, d.cfg.viewOwner), http.StatusNotFound)
			return
		}
		owner = o
	}
	descs, err := d.sys.DescribeInstance(owner, rel)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "%s (%d rows)\n", rel, len(descs))
	for _, desc := range descs {
		fmt.Fprintln(w, desc)
	}
}

// handleQuery answers a conjunctive query over a maintained view:
// GET /query?q=ans(x)+:-+R(x)[&owner=P][&nulls=1]. Each request runs
// through the view's instrumented read path, so it lands in the
// per-query latency histograms and, past the slow threshold, the
// /debug/slowqueries ring.
func (d *daemon) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	owner := d.defaultOwner
	if o := r.URL.Query().Get("owner"); o != "" {
		if !d.allViews && o != d.cfg.viewOwner {
			http.Error(w, fmt.Sprintf("view %q is not maintained by this daemon (running with -view %q)", o, d.cfg.viewOwner), http.StatusNotFound)
			return
		}
		owner = o
	}
	rows, err := d.sys.Query(r.Context(), owner, q, r.URL.Query().Get("nulls") == "1")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "%d rows\n", len(rows))
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
}

// statusRecorder captures the status code the handler wrote (200 when
// it never called WriteHeader).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher through the wrapper: /watch streams
// chunked NDJSON and refuses writers that cannot flush mid-response.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// httpPattern normalizes a request path to the mux pattern it routes
// to, bounding metric label cardinality against probe scans.
func httpPattern(path string) string {
	if strings.HasPrefix(path, "/debug/pprof/") {
		return "/debug/pprof"
	}
	switch path {
	case "/publish", "/fetch", "/horizon", "/watch",
		"/healthz", "/readyz", "/metrics",
		"/debug/trace", "/debug/slowqueries", "/instance", "/query",
		"/spec", "/spec/mapping":
		return path
	default:
		return "other"
	}
}

// logRequests is the access-log middleware: one structured record per
// request (method, path, status, duration, peer, a per-request id, and
// the publication trace id when the request carried a traceparent
// header) plus the HTTP request counter and latency histogram, labeled
// by normalized pattern.
func (d *daemon) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		reqID := obs.NewSpanID()
		next.ServeHTTP(sr, r)
		dur := time.Since(start)
		pattern := httpPattern(r.URL.Path)
		reg := d.obs.Registry()
		reg.Counter("orchestra_http_requests_total", "HTTP requests served.",
			obs.L("path", pattern), obs.L("status", strconv.Itoa(sr.status))).Inc()
		reg.Histogram("orchestra_http_request_duration_seconds",
			"Wall clock of one HTTP request.", obs.DurationBuckets(),
			obs.L("path", pattern)).Observe(dur.Seconds())
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sr.status),
			slog.Duration("dur", dur),
			slog.String("peer", r.RemoteAddr),
			slog.String("request_id", reqID),
		}
		if sc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			attrs = append(attrs, slog.String("trace_id", sc.TraceID))
		}
		d.cfg.logger.Info("http", attrs...)
	})
}

// exchangeOnce runs one pass over the maintained view(s) and flips the
// readiness flag on the first success. When the auto-profiler is armed
// (the previous pass tripped -profile-threshold) the pass runs under
// the CPU profiler; afterwards the pass's wall clock may arm it.
func (d *daemon) exchangeOnce(ctx context.Context) error {
	stop := d.prof.maybeStart()
	start := time.Now()
	var err error
	if d.allViews {
		d.globalOnce.Do(func() {
			if _, gerr := d.sys.Exchange(ctx, ""); gerr != nil && ctx.Err() == nil {
				d.cfg.logger.Error("materializing global view", "err", gerr)
			}
		})
		_, err = d.sys.ExchangeAll(ctx)
	} else {
		_, err = d.sys.Exchange(ctx, d.cfg.viewOwner)
	}
	stop()
	d.prof.observePass(time.Since(start))
	if err == nil {
		d.ready.Store(true)
	}
	return err
}

// runExchangeLoop drives the maintained views until ctx is done.
// After the initial warming pass it subscribes to the bus
// (System.StartPush): each publication streamed in — accepted by this
// daemon's own service or, with -bus, by the remote node — triggers an
// immediate coalesced import, so views converge with sub-second latency
// instead of waiting out the -refresh ticker. The ticker stays on as a
// safety net across stream outages, and as the only driver when the bus
// has no subscription capability.
func (d *daemon) runExchangeLoop(ctx context.Context) {
	if err := d.exchangeOnce(ctx); err != nil && ctx.Err() == nil {
		d.cfg.logger.Error("initial exchange", "err", err)
	}
	if stopPush, err := d.sys.StartPush(ctx); err != nil {
		d.cfg.logger.Info("push streaming unavailable; falling back to polling", "err", err)
	} else {
		defer stopPush()
		d.cfg.logger.Info("push streaming enabled")
	}
	ticker := time.NewTicker(d.cfg.refresh)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if err := d.exchangeOnce(ctx); err != nil && ctx.Err() == nil {
			d.cfg.logger.Error("exchange", "err", err)
		}
	}
}
