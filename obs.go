package orchestra

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/exchange"
	"orchestra/internal/logstore"
	"orchestra/internal/obs"
	"orchestra/internal/statestore"
)

// The operations-plane vocabulary (see internal/obs). An Observability
// value bundles a metrics registry with a pass tracer; attach one to a
// System with WithObservability and to a BusServer with EnableMetrics,
// then serve the registry as Prometheus text (Registry().WritePrometheus)
// and the tracer's recent passes as JSON span trees (cmd/orchestrad does
// both, on /metrics and /debug/trace).
type (
	// Observability is the metrics registry + pass tracer bundle.
	Observability = obs.Observability
	// MetricsRegistry is the registry half: counters, gauges, and
	// histograms with Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// ExchangeTrace is the structured trace of one exchange pass.
	ExchangeTrace = obs.PassTrace
	// ViewPass is one view's slice of an ExchangeTrace.
	ViewPass = obs.ViewPass
	// TraceSpan is one node of a rendered span tree.
	TraceSpan = obs.Span
	// SpanContext is a publication's lineage identity: the trace id
	// minted at publish and carried across processes.
	SpanContext = obs.SpanContext
	// PubRecord is the publish-side lineage record of one accepted
	// publication (the BusServer records one per publish).
	PubRecord = obs.PubRecord
	// SlowQuery is one captured slow-query record: query text, phase
	// breakdown, dependency pins, and the chosen plan.
	SlowQuery = obs.QueryStats
)

// NewTraceContext attaches a fresh publication trace to ctx and returns
// the trace id, so a caller can publish and then follow the publication
// through `orchestra trace -pub <id>` / /debug/trace?pub=<id>. If ctx
// already carries a span (e.g. a server handler that parsed an incoming
// traceparent header), that trace is kept and its id returned.
func NewTraceContext(ctx context.Context) (context.Context, string) {
	ctx, sc := obs.EnsureSpan(ctx)
	return ctx, sc.TraceID
}

// TraceIDFromContext returns the lineage trace id on ctx, or "".
func TraceIDFromContext(ctx context.Context) string {
	return obs.TraceIDFromContext(ctx)
}

// NewObservability builds a fresh operations plane retaining the last
// traceCap exchange traces (<= 0 selects the default of 64). Use one
// Observability per System: per-system gauges (bus horizon, checkpoint
// age) are registered against the bundle's registry, and a second
// System registering the same names would silently share series.
func NewObservability(traceCap int) *Observability { return obs.NewObservability(traceCap) }

// systemObs is the System's pre-resolved instrument bundle. Everything
// here is either an atomic-emission instrument or a plain atomic the
// GaugeFuncs read, so updating it from exchange hot paths never locks;
// registration (which does lock and allocate) happens once, in
// newSystemObs / ensureView, always outside s.mu critical sections. A
// nil *systemObs disables everything: all methods are nil-safe.
type systemObs struct {
	bundle *obs.Observability

	// Per-pass instruments, pre-resolved per kind ("exchange" /
	// "exchange_all") so finishPass never touches the registry.
	passSeconds  map[string]*obs.Histogram
	passes       map[string]*obs.Counter
	passFailures map[string]*obs.Counter

	pubsConsumed    *obs.Counter
	editsIn         *obs.Counter
	editsCancelled  *obs.Counter
	cancellation    *obs.Gauge
	tuplesDeleted   *obs.Counter
	provRowsDeleted *obs.Counter
	derived         *obs.Counter

	// Delivery-path counters: how views learned about publications.
	// fetchCalls/fetchPubs count pull round trips and the publications
	// they carried; pushDeltas counts subscription-delivered deltas an
	// exchange applied without fetching; pushPasses counts passes that
	// ran entirely off the push buffer.
	fetchCalls *obs.Counter
	fetchPubs  *obs.Counter
	pushDeltas *obs.Counter
	pushPasses *obs.Counter

	// Read-path query cache counters, shared across views.
	qcHits, qcMisses, qcEvictions *obs.Counter

	// Per-query latency histograms, pre-resolved per cache outcome
	// ("hit" / "miss" / "uncached"), plus the slow-query ring and its
	// threshold in nanoseconds (0 disables capture).
	queryDur map[string]*obs.Histogram
	slowRing *obs.SlowQueryRing
	slowNS   int64

	// horizon is the highest bus length any pass (or Stats poll) has
	// observed; per-view bus-lag gauges read it against the view's
	// mirrored cursor.
	horizon atomic.Int64

	mu    sync.Mutex
	views map[string]*viewObs
	// horizonShards holds the highest per-shard position any pass has
	// observed; per-(view,shard) lag gauges read it against the view's
	// shard mirror. Cells are created under mu, then updated atomically.
	horizonShards map[string]*atomic.Int64
}

// viewObs mirrors one view's cursor into atomics so GaugeFuncs can
// read it without the view's lock.
type viewObs struct {
	cursor atomic.Int64
	// shards mirrors the cursor's per-shard positions (cells created
	// under systemObs.mu, updated atomically).
	shards map[string]*atomic.Int64
}

const passKindExchange, passKindExchangeAll, passKindExchangePush = "exchange", "exchange_all", "exchange_push"

// newSystemObs registers the System's pass-level instruments in the
// bundle's registry.
func newSystemObs(o *obs.Observability) *systemObs {
	r := o.Registry()
	x := &systemObs{
		bundle:        o,
		passSeconds:   make(map[string]*obs.Histogram, 3),
		passes:        make(map[string]*obs.Counter, 3),
		passFailures:  make(map[string]*obs.Counter, 3),
		views:         make(map[string]*viewObs),
		horizonShards: make(map[string]*atomic.Int64),
	}
	for _, kind := range []string{passKindExchange, passKindExchangeAll, passKindExchangePush} {
		lbl := obs.L("kind", kind)
		x.passSeconds[kind] = r.Histogram("orchestra_exchange_pass_duration_seconds",
			"Wall clock of one update-exchange pass.", obs.DurationBuckets(), lbl)
		x.passes[kind] = r.Counter("orchestra_exchange_passes_total",
			"Update-exchange passes completed (including failed ones).", lbl)
		x.passFailures[kind] = r.Counter("orchestra_exchange_pass_failures_total",
			"Update-exchange passes that returned an error.", lbl)
	}
	x.pubsConsumed = r.Counter("orchestra_exchange_publications_total",
		"Bus publications consumed by exchange passes.")
	x.editsIn = r.Counter("orchestra_exchange_edits_total",
		"Edit-log entries entering net-effect coalescing.")
	x.editsCancelled = r.Counter("orchestra_exchange_edits_cancelled_total",
		"Edits net-effect coalescing discharged without propagation.")
	x.cancellation = r.Gauge("orchestra_coalesce_cancellation_ratio",
		"Cancellation ratio of the most recent exchange that saw edits.")
	x.tuplesDeleted = r.Counter("orchestra_exchange_tuples_deleted_total",
		"Derived tuples removed by deletion propagation.")
	x.provRowsDeleted = r.Counter("orchestra_exchange_prov_rows_deleted_total",
		"Provenance rows removed by deletion propagation.")
	x.derived = r.Counter("orchestra_engine_derived_total",
		"Tuples derived by engine fixpoints during exchange.")
	x.fetchCalls = r.Counter("orchestra_exchange_fetch_calls_total",
		"Bus fetch round trips made by exchange passes.")
	x.fetchPubs = r.Counter("orchestra_exchange_fetch_publications_total",
		"Publications delivered to exchange passes by bus fetches (pull).")
	x.pushDeltas = r.Counter("orchestra_exchange_push_deltas_total",
		"Publications delivered to exchange passes by subscriptions (push).")
	x.pushPasses = r.Counter("orchestra_exchange_push_passes_total",
		"Exchange passes served entirely from the push buffer, no fetch.")
	x.qcHits = r.Counter("orchestra_query_cache_hits",
		"Query results served from the provenance-invalidated result cache.")
	x.qcMisses = r.Counter("orchestra_query_cache_misses",
		"Queries evaluated because no valid cache entry existed.")
	x.qcEvictions = r.Counter("orchestra_query_cache_evictions",
		"Query cache entries evicted, by capacity or staleness.")
	x.queryDur = make(map[string]*obs.Histogram, 3)
	for _, oc := range []string{"hit", "miss", "uncached"} {
		x.queryDur[oc] = r.Histogram("orchestra_query_duration_seconds",
			"Wall clock of one read-path query, by cache outcome.",
			obs.DurationBuckets(), obs.L("outcome", oc))
	}
	x.slowRing = o.SlowQueries()
	r.GaugeFunc("orchestra_bus_horizon",
		"Highest bus publication count this system has observed.",
		func() float64 { return float64(x.horizon.Load()) })
	return x
}

// ensureView returns (registering on first sight) the owner's cursor
// mirror and its gauges. Idempotent and nil-safe; callers invoke it
// outside s.mu because registration locks the registry.
func (x *systemObs) ensureView(owner string) *viewObs {
	if x == nil {
		return nil
	}
	x.mu.Lock()
	vo, ok := x.views[owner]
	if !ok {
		vo = &viewObs{}
		x.views[owner] = vo
	}
	x.mu.Unlock()
	if !ok {
		label := owner
		if label == "" {
			label = "(global)"
		}
		r := x.bundle.Registry()
		r.GaugeFunc("orchestra_view_cursor",
			"Bus cursor of the view's last completed exchange.",
			func() float64 { return float64(vo.cursor.Load()) }, obs.L("view", label))
		r.GaugeFunc("orchestra_bus_lag",
			"Publications on the bus the view has not yet applied.",
			func() float64 { return max(float64(x.horizon.Load()-vo.cursor.Load()), 0) },
			obs.L("view", label))
	}
	return vo
}

// queryCacheMetrics resolves the cache counter bundle views attach to
// their query caches; the zero value (observability off) is nil-safe.
func (x *systemObs) queryCacheMetrics() core.QueryCacheMetrics {
	if x == nil {
		return core.QueryCacheMetrics{}
	}
	return core.QueryCacheMetrics{Hits: x.qcHits, Misses: x.qcMisses, Evictions: x.qcEvictions}
}

// observeQuery accounts one completed read-path query: the outcome's
// latency histogram, and — past the slow threshold — the ring. Runs on
// the query path but only when observability is attached; emission is
// one atomic histogram observe plus (rarely) a ring append.
func (x *systemObs) observeQuery(st obs.QueryStats) {
	if x == nil {
		return
	}
	if h, ok := x.queryDur[st.Outcome]; ok {
		h.Observe(float64(st.WallNS) / 1e9)
	}
	if x.slowNS > 0 && st.WallNS >= x.slowNS {
		x.slowRing.Add(st)
	}
}

// queryObserver resolves the observer callback and slow threshold views
// attach to their query paths; the zero value (observability off) keeps
// the instrumentation sites compiled-in no-ops.
func (x *systemObs) queryObserver() (func(obs.QueryStats), time.Duration) {
	if x == nil {
		return nil, 0
	}
	return x.observeQuery, time.Duration(x.slowNS)
}

// raiseHorizon lifts the observed bus length monotonically.
func (x *systemObs) raiseHorizon(n int64) {
	if x == nil {
		return
	}
	for {
		cur := x.horizon.Load()
		if n <= cur || x.horizon.CompareAndSwap(cur, n) {
			return
		}
	}
}

// raiseCell lifts one atomic cell monotonically.
func raiseCell(c *atomic.Int64, n int64) {
	for {
		cur := c.Load()
		if n <= cur || c.CompareAndSwap(cur, n) {
			return
		}
	}
}

// recordShards mirrors a cursor's per-shard positions into the view's
// shard cells (registering the orchestra_shard_lag gauge on first
// sight of each (view,shard) pair) and lifts the shard horizons.
func (x *systemObs) recordShards(owner string, cursor core.Cursor) {
	if x == nil {
		return
	}
	shards := cursor.Shards()
	if len(shards) == 0 {
		return
	}
	label := owner
	if label == "" {
		label = "(global)"
	}
	for _, shard := range shards {
		pos := int64(cursor.Shard(shard))
		x.mu.Lock()
		vo := x.views[owner]
		if vo == nil {
			vo = &viewObs{}
			x.views[owner] = vo
		}
		if vo.shards == nil {
			vo.shards = make(map[string]*atomic.Int64)
		}
		cell, ok := vo.shards[shard]
		if !ok {
			cell = &atomic.Int64{}
			vo.shards[shard] = cell
		}
		hcell, hok := x.horizonShards[shard]
		if !hok {
			hcell = &atomic.Int64{}
			x.horizonShards[shard] = hcell
		}
		x.mu.Unlock()
		if !ok {
			// Register outside x.mu: registration locks the registry.
			x.bundle.Registry().GaugeFunc("orchestra_shard_lag",
				"Publications on one bus shard the view has not yet applied.",
				func() float64 { return max(float64(hcell.Load()-cell.Load()), 0) },
				obs.L("view", label), obs.L("shard", shard))
		}
		raiseCell(cell, pos)
		raiseCell(hcell, pos)
	}
}

// recordView accounts one view's completed (or failed) exchange pass:
// counters, the cursor and shard mirrors, and — when the pass is
// traced — a ViewPass appended to the trace. Runs under the view's
// lock but never under s.mu. The view's wall clock is taken from start
// after the emission work, so first-sight costs (view/shard gauge
// registration) are attributed to the view pass rather than widening
// the gap between view wall and pass wall.
func (x *systemObs) recordView(pass *obs.PassTrace, owner string, st ApplyStats, start time.Time, ckpt time.Duration, cursor core.Cursor, err error) {
	if x == nil {
		return
	}
	vo := x.ensureView(owner)
	vo.cursor.Store(int64(cursor.Total()))
	x.raiseHorizon(int64(cursor.Total()))
	x.recordShards(owner, cursor)
	x.fetchCalls.Add(int64(st.FetchCalls))
	x.fetchPubs.Add(int64(st.FetchPublications))
	x.pushDeltas.Add(int64(st.PushDeltas))
	if st.PushDeltas > 0 && st.FetchCalls == 0 {
		x.pushPasses.Inc()
	}
	x.pubsConsumed.Add(int64(st.Publications))
	x.editsIn.Add(int64(st.EditsIn))
	x.editsCancelled.Add(int64(st.EditsCancelled))
	if st.EditsIn > 0 {
		x.cancellation.Set(st.CancellationRatio())
	}
	x.tuplesDeleted.Add(int64(st.TuplesDeleted))
	x.provRowsDeleted.Add(int64(st.ProvRowsDeleted))
	x.derived.Add(int64(st.Engine.Derived))
	if pass == nil {
		return
	}
	vp := obs.ViewPass{
		Owner:             owner,
		WallNS:            time.Since(start).Nanoseconds(),
		Publications:      st.Publications,
		FetchNS:           st.FetchNS,
		EditsIn:           st.EditsIn,
		EditsCancelled:    st.EditsCancelled,
		CancellationRatio: st.CancellationRatio(),
		NetEffectNS:       st.NetEffectNS,
		DeleteNS:          st.DeleteNS,
		TuplesDeleted:     st.TuplesDeleted,
		ProvRowsDeleted:   st.ProvRowsDeleted,
		Checked:           st.Checked,
		Rederived:         st.Rederived,
		InsertNS:          st.InsertNS,
		InsL:              st.InsL,
		DelL:              st.DelL,
		InsR:              st.InsR,
		DelR:              st.DelR,
		Rounds:            st.Engine.Iterations,
		Derived:           st.Engine.Derived,
		Probes:            st.Engine.Probes,
		RuleFires:         st.Engine.RuleFires,
		EngineNS:          st.Engine.EvalNS,
		CheckpointNS:      ckpt.Nanoseconds(),
		TraceIDs:          st.TraceIDs,
	}
	if err != nil {
		vp.Err = err.Error()
	}
	pass.AddView(vp)
}

// finishPass closes a traced pass: wall clock into the kind's
// histogram, the trace into the ring.
func (x *systemObs) finishPass(pass *obs.PassTrace, kind string, err error) {
	if x == nil {
		return
	}
	x.passes[kind].Inc()
	if err != nil {
		x.passFailures[kind].Inc()
	}
	if p := pass.Finish(x.bundle.Tracer()); p != nil {
		x.passSeconds[kind].Observe(float64(p.WallNS) / 1e9)
	}
}

// startPass opens a trace for one pass, or returns nil when
// observability is off (every downstream consumer is nil-safe).
func (x *systemObs) startPass(kind string) *obs.PassTrace {
	if x == nil {
		return nil
	}
	return obs.StartPass(kind)
}

// initObs attaches an operations plane to a freshly built System: the
// pass-level instruments, the scheduler/statestore/logstore hooks, and
// cursor mirrors for every recovered view. Runs inside New, before the
// System is shared, so no locking is needed.
func (s *System) initObs(o *Observability, slowQuery time.Duration) {
	x := newSystemObs(o)
	switch {
	case slowQuery > 0:
		x.slowNS = slowQuery.Nanoseconds()
	case slowQuery == 0:
		x.slowNS = defaultSlowQueryThreshold.Nanoseconds()
	}
	s.obsx = x
	r := o.Registry()
	s.sched.SetMetrics(exchange.Metrics{
		QueueDepth: r.Gauge("orchestra_sched_queue_depth",
			"Exchange tasks accepted by the scheduler but not yet started."),
		BusyWorkers: r.Gauge("orchestra_sched_busy_workers",
			"Exchange tasks currently executing."),
		TaskSeconds: r.Histogram("orchestra_sched_task_duration_seconds",
			"Wall clock of one scheduled exchange task.", obs.DurationBuckets()),
		TaskFailures: r.Counter("orchestra_sched_task_failures_total",
			"Scheduled exchange tasks that returned an error."),
	})
	if st := s.store; st != nil {
		st.SetMetrics(statestore.Metrics{
			CheckpointSeconds: r.Histogram("orchestra_checkpoint_duration_seconds",
				"Wall clock of one view checkpoint.", obs.DurationBuckets()),
			CheckpointBytes: r.Histogram("orchestra_checkpoint_bytes",
				"Size of one view checkpoint: a snapshot or journal frame payload.", obs.SizeBuckets()),
			CheckpointFailures: r.Counter("orchestra_checkpoint_failures_total",
				"View checkpoints that failed."),
		})
		r.GaugeFunc("orchestra_checkpoint_age_seconds",
			"Seconds since the last successful checkpoint (store open counts as one).",
			func() float64 { return time.Since(st.LastSaveTime()).Seconds() })
	}
	if s.ownBus != nil {
		s.ownBus.SetMetrics(busAppendMetrics(r))
		if h, err := s.ownBus.Horizon(context.Background()); err == nil {
			x.horizon.Store(int64(h.Total()))
		}
	}
	for owner, h := range s.views {
		x.ensureView(owner).cursor.Store(int64(h.cursor.Total()))
		x.recordShards(owner, h.cursor)
		// Recovered views were built before the operations plane existed;
		// attach their cache counters and query observers now.
		h.view.SetQueryCacheMetrics(x.queryCacheMetrics())
		h.view.SetQueryObserver(x.queryObserver())
	}
}

// defaultSlowQueryThreshold is the latency past which a query is
// captured into the slow-query ring unless WithSlowQueryThreshold says
// otherwise.
const defaultSlowQueryThreshold = 250 * time.Millisecond

// SlowQueries returns the most recent n captured slow queries, newest
// first (nil without WithObservability). See WithSlowQueryThreshold.
func (s *System) SlowQueries(n int) []SlowQuery {
	if s.obsx == nil {
		return nil
	}
	return s.obsx.slowRing.Last(n)
}

// busAppendMetrics resolves the durable-append instruments. Both the
// System's own ShardedFileBus and a BusServer's persistence register
// the same names, so a node running both in one registry shares the series —
// appends are appends, whichever side performed them.
func busAppendMetrics(r *obs.Registry) logstore.Metrics {
	return logstore.Metrics{
		AppendSeconds: r.Histogram("orchestra_bus_append_duration_seconds",
			"Wall clock of one durable publication append (fsync included).", obs.DurationBuckets()),
		AppendBytes: r.Counter("orchestra_bus_append_bytes_total",
			"Bytes durably appended to the publication log."),
		AppendFailures: r.Counter("orchestra_bus_append_failures_total",
			"Durable publication appends that failed."),
	}
}

// Observability returns the bundle attached via WithObservability, or
// nil when the System runs without one.
func (s *System) Observability() *Observability {
	if s.obsx == nil {
		return nil
	}
	return s.obsx.bundle
}

// ViewStat is one view's row of a SystemStats snapshot.
type ViewStat struct {
	Owner string `json:"owner"`
	// Cursor is the bus position's total; Position is the cursor's
	// durable form, with the per-shard breakdown ("" when the view was
	// busy and only the mirrored total was readable).
	Cursor   int    `json:"cursor"`
	Position string `json:"position,omitempty"`
	// Pending is the number of bus publications past the cursor.
	Pending int `json:"pending"`
	// SinceCheckpoint counts publications applied since the view's last
	// checkpoint (-1 when the view was busy; see Busy).
	SinceCheckpoint int `json:"since_checkpoint"`
	// Busy marks a view whose lock an in-flight operation held when the
	// snapshot was taken: Cursor then comes from the observability
	// mirror (last completed exchange; 0 without WithObservability) and
	// SinceCheckpoint is unknown.
	Busy bool `json:"busy,omitempty"`
}

// SystemStats is System.Stats' point-in-time snapshot of the node's
// operational state.
type SystemStats struct {
	// BusLen is the publication count on the System's bus.
	BusLen int `json:"bus_len"`
	// SpecGeneration counts applied spec-evolution operations.
	SpecGeneration int `json:"spec_generation"`
	// Passes counts exchange passes traced so far (0 without
	// WithObservability).
	Passes uint64 `json:"passes"`
	// LastCheckpoint is the time of the last successful checkpoint
	// (zero without WithPersistence; store open counts as one).
	LastCheckpoint time.Time `json:"last_checkpoint"`
	// Views lists every materialized view, sorted by owner (the global
	// view's "" first).
	Views []ViewStat `json:"views"`
}

// Stats snapshots the System's operational state: bus length, per-view
// cursors and backlog, and checkpoint recency. It never waits on a
// busy view — a view whose lock is held mid-exchange is reported with
// Busy set and its cursor read from the observability mirror — so it
// is safe to call from a metrics scrape while exchanges run. As a side
// effect it refreshes the bus-horizon gauge behind the per-view
// orchestra_bus_lag series.
func (s *System) Stats(ctx context.Context) (SystemStats, error) {
	horizon, err := s.bus.Horizon(ctx)
	if err != nil {
		return SystemStats{}, err
	}
	n := horizon.Total()
	out := SystemStats{BusLen: n, SpecGeneration: s.SpecGeneration()}
	if s.obsx != nil {
		out.Passes = s.obsx.bundle.Tracer().Count()
		s.obsx.raiseHorizon(int64(n))
	}
	if s.store != nil {
		out.LastCheckpoint = s.store.LastSaveTime()
	}
	s.mu.RLock()
	handles := make(map[string]*viewHandle, len(s.views))
	owners := make([]string, 0, len(s.views))
	for owner, h := range s.views {
		owners = append(owners, owner)
		handles[owner] = h
	}
	s.mu.RUnlock()
	sort.Strings(owners)
	for _, owner := range owners {
		h := handles[owner]
		vs := ViewStat{Owner: owner}
		if h.mu.TryLock() {
			vs.Cursor = h.cursor.Total()
			vs.Position = h.cursor.String()
			vs.SinceCheckpoint = h.sinceCkpt
			h.mu.Unlock()
		} else {
			vs.Busy = true
			vs.SinceCheckpoint = -1
			if s.obsx != nil {
				vs.Cursor = int(s.obsx.ensureView(owner).cursor.Load())
			}
		}
		vs.Pending = max(n-vs.Cursor, 0)
		out.Views = append(out.Views, vs)
	}
	return out, nil
}
