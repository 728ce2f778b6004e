package orchestra

import (
	"context"
	"fmt"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/exchange"
	"orchestra/internal/logstore"
	"orchestra/internal/obs"
	"orchestra/internal/statestore"
)

// System is the public facade over one CDSS node: a set of materialized
// peer views attached to a publication bus. Peers publish edit logs to
// the bus; each view imports the publications it has not yet seen when
// its owner runs Exchange (§2's operational model). The special owner ""
// names the global trust-all observer view.
//
// A System is safe for concurrent use: view creation and per-view
// cursors are guarded by a read-write lock, and every operation that
// touches a view's database is serialized per view, so exchanges of
// different peers' views proceed in parallel while two exchanges of the
// same view never interleave.
//
// With WithPersistence the System is additionally durable: views are
// checkpointed (snapshot + bus cursor, atomically) into a state
// directory, and New recovers them — see persist.go.
type System struct {
	// spec is the current confederation description; the evolution
	// operations (evolve.go) swap it under mu, so every read outside a
	// mu-guarded section goes through specNow.
	spec *core.Spec
	// specGen counts applied evolution operations (0 at New); see
	// SpecGeneration.
	specGen int
	opts    core.Options
	bus     core.PublicationBus
	// sched runs ExchangeAll's per-view passes over a bounded worker
	// pool (WithExchangeParallelism). coalesce selects the coalesced
	// pass; it is false only in the exchange equivalence test's
	// reference System, which replays one publication per apply.
	sched    *exchange.Scheduler[ApplyStats]
	coalesce bool

	// Durability (nil/zero without WithPersistence).
	persist *persistConfig
	store   *statestore.Store
	// ownBus is set when WithPersistence created the System's durable
	// bus, making the System responsible for closing it.
	ownBus *logstore.ShardedBus

	// obsx is the operations plane (nil without WithObservability); all
	// its methods are nil-safe, so instrumentation sites call it
	// unconditionally. See obs.go.
	obsx *systemObs

	// secIdx holds the validated WithSecondaryIndex declarations, applied
	// to each view when it materializes (setupView).
	secIdx []secIndexSpec

	// mu guards the views map.
	mu    sync.RWMutex
	views map[string]*viewHandle
}

// viewHandle pairs a materialized view with its bus cursor and the lock
// serializing all operations against the view's database.
type viewHandle struct {
	mu     sync.Mutex
	view   *core.View
	cursor core.Cursor
	// sinceCkpt counts publications applied since the last checkpoint,
	// driving the CheckpointEvery policy.
	sinceCkpt int

	// Push delivery buffer (StartPush): the subscription pump appends
	// deltas under pushMu (never the view lock, so delivery cannot stall
	// behind an exchange), and the next exchange pass drains them,
	// applying in place of a bus fetch when they form a contiguous run.
	pushMu sync.Mutex
	// pushBuf holds deltas delivered since the last exchange, bounded by
	// pushBufferCap.
	pushBuf []core.Delta
	// pushOverflow marks a buffer that hit its cap: the buffered run is
	// no longer complete, so the next exchange pulls instead.
	pushOverflow bool
}

// pushBufferCap bounds each view's push buffer. A view that falls
// further behind than this simply falls back to one pull fetch — push
// delivery never costs unbounded memory.
const pushBufferCap = 256

// bufferPush appends a pushed delta, tripping the overflow flag (and
// dropping the now-incomplete run) at capacity.
func (h *viewHandle) bufferPush(d core.Delta) {
	h.pushMu.Lock()
	defer h.pushMu.Unlock()
	if h.pushOverflow {
		return
	}
	if len(h.pushBuf) >= pushBufferCap {
		h.pushBuf = nil
		h.pushOverflow = true
		return
	}
	h.pushBuf = append(h.pushBuf, d)
}

// takePush drains the push buffer, returning the run and whether it
// overflowed (in which case the run is incomplete and empty).
func (h *viewHandle) takePush() ([]core.Delta, bool) {
	h.pushMu.Lock()
	defer h.pushMu.Unlock()
	deltas, overflow := h.pushBuf, h.pushOverflow
	h.pushBuf, h.pushOverflow = nil, false
	return deltas, overflow
}

// New builds a System over a validated Spec. By default it runs embedded
// on an in-memory bus; the options select trust policies, buses,
// durability, observability, and read-path tuning. Maintenance always
// uses the indexed engine backend and the paper's provenance-driven
// deletion algorithm (§4.2); the baselines the paper compares them
// against live in internal/benchharness and cmd/benchfig.
func New(sp *Spec, opts ...Option) (*System, error) {
	if sp == nil {
		return nil, fmt.Errorf("orchestra: nil spec")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.policies != nil {
		// Re-validate over a merged policy map so the caller's Spec stays
		// untouched and shareable across Systems.
		merged := make(map[string]*TrustPolicy, len(sp.Policies)+len(cfg.policies))
		for peer, pol := range sp.Policies {
			merged[peer] = pol
		}
		for peer, pol := range cfg.policies {
			merged[peer] = pol
		}
		var err error
		if sp, err = core.NewSpec(sp.Universe, sp.Mappings, merged); err != nil {
			return nil, err
		}
	}
	for _, ix := range cfg.secIdx {
		if ix.owner != "" && sp.Universe.Peer(ix.owner) == nil {
			return nil, fmt.Errorf("orchestra: WithSecondaryIndex: unknown peer %q", ix.owner)
		}
		rel := sp.Universe.Relation(ix.relation)
		if rel == nil {
			return nil, fmt.Errorf("orchestra: WithSecondaryIndex: unknown relation %q", ix.relation)
		}
		found := false
		for _, col := range rel.Cols {
			if col.Name == ix.column {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("orchestra: WithSecondaryIndex: relation %q has no column %q", ix.relation, ix.column)
		}
	}
	s := &System{
		spec:     sp,
		opts:     cfg.opts,
		sched:    exchange.NewScheduler[ApplyStats](cfg.exchPar),
		coalesce: !cfg.serialExchange,
		secIdx:   cfg.secIdx,
		views:    make(map[string]*viewHandle),
	}
	if cfg.persist != nil {
		// May substitute a durable bus for the default and recovers
		// persisted views into s.views.
		if err := s.openPersistence(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.bus == nil {
		cfg.bus = core.NewMemoryBus()
	}
	s.bus = cfg.bus
	if cfg.obs != nil {
		s.initObs(cfg.obs, cfg.slowQuery)
	}
	return s, nil
}

// Spec returns the CDSS description the system currently runs over
// (evolution operations replace it; see SpecGeneration).
func (s *System) Spec() *Spec { return s.specNow() }

// specNow reads the current spec under the lock — evolution swaps the
// pointer, so unguarded reads would race.
func (s *System) specNow() *core.Spec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.spec
}

// SpecGeneration reports how many evolution operations have been applied
// since New (0 for a freshly built System). It increases monotonically;
// persistence re-checkpoints on every change, so a recovered System
// always resumes from the latest applied spec.
func (s *System) SpecGeneration() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.specGen
}

// Bus returns the publication bus the system exchanges through.
func (s *System) Bus() PublicationBus { return s.bus }

// Peers lists the confederation's peers in registration order.
func (s *System) Peers() []string {
	peers := s.specNow().Universe.Peers()
	out := make([]string, len(peers))
	for i, p := range peers {
		out[i] = p.Name
	}
	return out
}

// RelationNames lists every user relation in the confederation.
func (s *System) RelationNames() []string {
	rels := s.specNow().Universe.Relations()
	out := make([]string, len(rels))
	for i, r := range rels {
		out[i] = r.Name
	}
	return out
}

// handle returns (lazily creating) the handle of an owner's view. View
// construction compiles the whole mapping program, so it runs outside
// the System lock — a parallel ExchangeAll materializing many views on
// first use would otherwise serialize on (and block every reader of)
// s.mu for the duration of each compile. Losers of the insertion race
// discard their compilation; NewView has no side effects beyond the
// returned view.
func (s *System) handle(owner string) (*viewHandle, error) {
	s.mu.RLock()
	h, ok := s.views[owner]
	spec := s.spec
	s.mu.RUnlock()
	if ok {
		return h, nil
	}
	v, err := core.NewView(spec, owner, s.opts)
	if err != nil {
		return nil, err
	}
	// Register the view's gauges before taking the lock: registration
	// allocates and locks the registry, so — like NewView's compile — it
	// stays out of s.mu critical sections. It is idempotent, so racing
	// creators are harmless.
	s.obsx.ensureView(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.views[owner]; ok {
		return h, nil
	}
	if s.spec != spec {
		// An evolution swapped the spec while we compiled; rebuild under
		// the lock (rare — evolutions are exclusive and infrequent).
		//orchestralint:ignore locksafe losing the compile race is rare; recompiling under the lock is the documented fallback (PR 5)
		if v, err = core.NewView(s.spec, owner, s.opts); err != nil {
			return nil, err
		}
	}
	s.setupView(owner, v)
	h = &viewHandle{view: v}
	s.views[owner] = h
	return h, nil
}

// setupView finishes a freshly created (or recovered, or evolution-
// rebuilt) view: it builds the owner's declared secondary indexes and
// attaches the query-cache counters and query-latency observer when an
// operations plane is on.
func (s *System) setupView(owner string, v *core.View) {
	for _, ix := range s.secIdx {
		if ix.owner != owner {
			continue
		}
		// New validated every declaration against the original Spec, so a
		// failure here means a spec evolution removed the relation or
		// column — the declaration is simply void for the rebuilt view.
		_ = v.DeclareSecondaryIndex(ix.relation, ix.column)
	}
	v.SetQueryCacheMetrics(s.obsx.queryCacheMetrics())
	v.SetQueryObserver(s.obsx.queryObserver())
}

// Publish validates a peer's edit log against the spec (peers edit only
// their own relations, §2) and appends it to the publication bus, making
// it visible to every node sharing the bus. It does not touch any view;
// importing is Exchange's job.
func (s *System) Publish(ctx context.Context, peer string, log EditLog) error {
	return core.PublishTo(ctx, s.bus, s.specNow(), peer, log)
}

// PublishFileEdits publishes a spec file's edit declarations in file
// order, batching contiguous same-peer runs into single publications.
func (s *System) PublishFileEdits(ctx context.Context, f *SpecFile) error {
	for _, run := range fileEditRuns(f) {
		if err := s.Publish(ctx, run.Peer, run.Log); err != nil {
			return err
		}
	}
	return nil
}

// SeedFileEdits idempotently seeds a bus from a spec file: it publishes
// only the edit runs the bus does not already hold, assuming the bus's
// existing publications are a prefix of the file's runs (true for a
// durable bus that only this spec file ever seeded). It returns the
// number of publications added. A run interrupted mid-seeding — even by
// a crash — resumes where it stopped, so the bus never ends up with a
// silently truncated or duplicated history.
func (s *System) SeedFileEdits(ctx context.Context, f *SpecFile) (int, error) {
	runs := fileEditRuns(f)
	horizon, err := s.bus.Horizon(ctx)
	if err != nil {
		return 0, err
	}
	have := horizon.Total()
	if have > len(runs) {
		return 0, fmt.Errorf("orchestra: bus already holds %d publications but the spec file seeds only %d", have, len(runs))
	}
	added := 0
	for _, run := range runs[have:] {
		if err := s.Publish(ctx, run.Peer, run.Log); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// fileEditRuns batches a spec file's edits into publications: one per
// contiguous same-peer run, in file order.
func fileEditRuns(f *SpecFile) []Publication {
	var runs []Publication
	for _, pe := range f.Edits {
		if n := len(runs); n > 0 && runs[n-1].Peer == pe.Peer {
			runs[n-1].Log = append(runs[n-1].Log, pe.Edit)
			continue
		}
		runs = append(runs, Publication{Peer: pe.Peer, Log: EditLog{pe.Edit}})
	}
	return runs
}

// Exchange performs update exchange for one owner's view: every
// publication on the bus since the view's previous exchange is imported
// in global publication order, with deletions propagated through
// provenance and trust applied per the owner's policy. The pending run
// is coalesced into one net maintenance operation, observationally
// identical to replaying it one publication at a time (the exchange
// equivalence property test compares the two). Cancellation via ctx
// reaches the engine's fixpoint loops; a cancelled exchange leaves the
// view's cursor unadvanced (a coalesced pass advances all-or-nothing).
//
// Under WithPersistence, a completed exchange checkpoints the view per
// the configured policy (while still holding the view's lock, so the
// persisted cursor always matches the snapshot). A bus holding fewer
// publications than the view's cursor — possible only when a durable
// view outlived its bus's storage — is reported as an error instead of
// silently re-importing from zero.
func (s *System) Exchange(ctx context.Context, owner string) (ApplyStats, error) {
	pass := s.obsx.startPass("exchange")
	stats, err := s.exchangeView(ctx, owner, pass)
	s.obsx.finishPass(pass, "exchange", err)
	return stats, err
}

// exchangeView materializes the owner's view (if needed), runs one
// exchange pass under its lock, and records the pass into the metrics
// and — when pass is non-nil — the trace. It is the shared body of
// Exchange and ExchangeAll's scheduler tasks.
func (s *System) exchangeView(ctx context.Context, owner string, pass *obs.PassTrace) (ApplyStats, error) {
	h, err := s.handle(owner)
	if err != nil {
		pass.AddView(obs.ViewPass{Owner: owner, Err: err.Error()})
		return ApplyStats{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	start := time.Now()
	stats, ckpt, err := s.exchangeLocked(ctx, owner, h)
	s.obsx.recordView(pass, owner, stats, start, ckpt, h.cursor, err)
	return stats, err
}

// exchangeLocked runs one exchange pass for a view whose lock the
// caller holds, reporting how long the post-exchange checkpoint took
// (0 when the policy skipped it).
func (s *System) exchangeLocked(ctx context.Context, owner string, h *viewHandle) (ApplyStats, time.Duration, error) {
	stats, err := s.importLocked(ctx, owner, h)
	if err != nil {
		return stats, 0, err
	}
	ckptStart := time.Now()
	took, cerr := s.maybeCheckpointLocked(ctx, owner, h)
	var ckpt time.Duration
	if took {
		ckpt = time.Since(ckptStart)
	}
	if cerr != nil {
		return stats, ckpt, fmt.Errorf("orchestra: exchange succeeded but checkpoint failed: %w", cerr)
	}
	return stats, ckpt, nil
}

// importLocked advances one view to the bus horizon, preferring the
// push buffer: a contiguous run of subscription-delivered deltas is
// applied directly — no bus round trip — and only a gap or an overflow
// falls back to the pull fetch. The caller holds h.mu.
func (s *System) importLocked(ctx context.Context, owner string, h *viewHandle) (ApplyStats, error) {
	if deltas, overflow := h.takePush(); !overflow && len(deltas) > 0 {
		next, stats, handled, err := core.ExchangeDeltas(ctx, h.view, h.cursor, deltas, core.DeleteProvenance)
		if handled {
			if err != nil {
				return stats, err
			}
			h.sinceCkpt += next.Total() - h.cursor.Total()
			h.cursor = next
			return stats, nil
		}
		// Stale buffer start or a gap (e.g. the view's first pass after
		// recovery, or deltas dropped while no pass ran): pull instead.
		// The pulled run subsumes the buffered one.
	}
	var (
		next  core.Cursor
		stats ApplyStats
		err   error
	)
	if s.coalesce {
		next, stats, err = core.ExchangeCoalesced(ctx, s.bus, h.view, h.cursor, core.DeleteProvenance)
	} else {
		next, stats, err = core.ExchangeInto(ctx, s.bus, h.view, h.cursor, core.DeleteProvenance)
	}
	if next.Total() < h.cursor.Total() {
		// Never regress the cursor: with no error this means the bus lost
		// publications the view already applied; with an error, keeping
		// the old cursor lets a retry resume correctly either way.
		if err == nil {
			err = fmt.Errorf("orchestra: bus holds %d publications but view %q has already applied %d (bus behind persisted state?)",
				next.Total(), owner, h.cursor.Total())
		}
		return stats, err
	}
	h.sinceCkpt += next.Total() - h.cursor.Total()
	h.cursor = next
	return stats, err
}

// ExchangeAll runs Exchange for every peer (and for the global view if
// it has been created), returning per-owner statistics. The per-view
// passes run concurrently over a bounded worker pool
// (WithExchangeParallelism; default GOMAXPROCS) — peer views are
// data-independent consumers of the shared bus, so the result is
// identical to the serial walk at any parallelism. On failure, passes
// already started complete, unstarted ones are skipped (and omitted
// from the map), and the reported error is a genuinely failing view's —
// not a sibling that was merely cancelled by the failure.
func (s *System) ExchangeAll(ctx context.Context) (map[string]ApplyStats, error) {
	owners := s.Peers()
	s.mu.RLock()
	if _, hasGlobal := s.views[""]; hasGlobal {
		owners = append(owners, "")
	}
	s.mu.RUnlock()
	// One pass trace spans the whole confederation walk: each task
	// appends its ViewPass (AddView is thread-safe), so /debug/trace
	// shows a parallel ExchangeAll as one span tree.
	pass := s.obsx.startPass("exchange_all")
	tasks := make([]exchange.Task[ApplyStats], len(owners))
	for i, owner := range owners {
		tasks[i] = exchange.Task[ApplyStats]{Owner: owner, Run: func(ctx context.Context) (ApplyStats, error) {
			return s.exchangeView(ctx, owner, pass)
		}}
	}
	out, err := s.sched.Run(ctx, tasks)
	s.obsx.finishPass(pass, "exchange_all", err)
	return out, err
}

// Pending reports how many publications an owner's view has not yet
// imported. It reads only the bus's sequence length, never publication
// bodies, and does not materialize the owner's view (a view that was
// never exchanged has everything pending).
func (s *System) Pending(ctx context.Context, owner string) (int, error) {
	if owner != "" && s.specNow().Universe.Peer(owner) == nil {
		return 0, fmt.Errorf("orchestra: unknown view owner %q", owner)
	}
	cursor := 0
	s.mu.RLock()
	h := s.views[owner]
	s.mu.RUnlock()
	if h != nil {
		h.mu.Lock()
		cursor = h.cursor.Total()
		h.mu.Unlock()
	}
	horizon, err := s.bus.Horizon(ctx)
	if err != nil {
		return 0, err
	}
	return max(horizon.Total()-cursor, 0), nil
}

// ViewCursor reports the typed bus position of an owner's view — the
// sharded cursor its last completed exchange advanced to (the zero
// Cursor for a view that never exchanged or does not exist). The
// durable form (Cursor.String) round-trips through ParseCursor.
func (s *System) ViewCursor(owner string) Cursor {
	s.mu.RLock()
	h := s.views[owner]
	s.mu.RUnlock()
	if h == nil {
		return Cursor{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cursor
}

// Query answers a conjunctive query over an owner's curated instances
// with certain-answers semantics (§2.1): rows containing labeled nulls
// are discarded unless includeNulls is set. The syntax is datalog with
// an optional selection, e.g. "ans(x,y) :- U(x,z), U(y,z) where x >= 3".
func (s *System) Query(ctx context.Context, owner, q string, includeNulls bool) ([]Tuple, error) {
	h, err := s.handle(owner)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.view.Query(ctx, q, includeNulls)
}

// ExplainQuery renders the physical plan Query would use for q over the
// owner's view — join order, access paths (warm index / transient hash /
// scan), cardinality estimates — without evaluating it. The output is
// human-readable text, not a stable format; it is the `orchestra stats
// -explain` surface.
func (s *System) ExplainQuery(ctx context.Context, owner, q string) (string, error) {
	h, err := s.handle(owner)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.view.ExplainQuery(ctx, q)
}

// QueryCacheStats reports the owner's view query-cache counters:
// results served from cache, misses, and evictions (capacity plus
// staleness). All zeros when the cache is disabled (WithQueryCache <= 0).
func (s *System) QueryCacheStats(owner string) (hits, misses, evictions uint64, err error) {
	h, err := s.handle(owner)
	if err != nil {
		return 0, 0, 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	hits, misses, evictions = h.view.QueryCacheStats()
	return hits, misses, evictions, nil
}

// ProvenanceInfo describes one instance tuple's provenance.
type ProvenanceInfo struct {
	// Expr is the tuple's provenance polynomial (§3.2), rendered with
	// user-facing token names.
	Expr string
	// Derivable reports whether the tuple is derivable from the current
	// local contributions (§4.1.3's test).
	Derivable bool
	// Support names the base tuples the backward pass found supporting
	// the tuple.
	Support []string
}

// ProvenanceExpr returns just the provenance expression of a tuple of
// an owner's curated instance — a graph walk, much cheaper than the
// full Provenance derivability analysis.
func (s *System) ProvenanceExpr(owner, rel string, t Tuple) (string, error) {
	h, err := s.handle(owner)
	if err != nil {
		return "", err
	}
	if s.specNow().Universe.Relation(rel) == nil {
		return "", fmt.Errorf("orchestra: unknown relation %q", rel)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.view.Repair(context.Background()); err != nil {
		return "", err
	}
	return h.view.ProvOf(rel, t).String(), nil
}

// Provenance returns the full provenance of a tuple of an owner's
// curated instance: its provenance expression, its derivability from
// the EDB, and the supporting base tuples. The derivability test runs
// a goal-directed fixpoint (§4.1.3) and holds the view's lock for its
// duration; use ProvenanceExpr when only the expression is needed.
func (s *System) Provenance(ctx context.Context, owner, rel string, t Tuple) (ProvenanceInfo, error) {
	h, err := s.handle(owner)
	if err != nil {
		return ProvenanceInfo{}, err
	}
	if s.specNow().Universe.Relation(rel) == nil {
		return ProvenanceInfo{}, fmt.Errorf("orchestra: unknown relation %q", rel)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.view.Repair(ctx); err != nil {
		return ProvenanceInfo{}, err
	}
	info := ProvenanceInfo{Expr: h.view.ProvOf(rel, t).String()}
	alive, support, err := h.view.Derivability(ctx, rel, t)
	if err != nil {
		return info, err
	}
	info.Derivable = alive
	for _, ref := range support {
		info.Support = append(info.Support, h.view.Graph().TokenName(ref))
	}
	return info, nil
}
