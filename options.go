package orchestra

import (
	"time"

	"orchestra/internal/core"
	"orchestra/internal/trust"
)

// config collects the functional options of New.
type config struct {
	opts     core.Options
	bus      core.PublicationBus
	policies map[string]*trust.Policy
	persist  *persistConfig
	// exchPar bounds ExchangeAll's per-view worker pool (0 = GOMAXPROCS).
	exchPar int
	// obs attaches an operations plane (WithObservability).
	obs *Observability
	// slowQuery overrides the slow-query threshold (WithSlowQueryThreshold);
	// 0 keeps the default, < 0 disables slow-query capture.
	slowQuery time.Duration
	// secIdx collects WithSecondaryIndex declarations, validated in New.
	secIdx []secIndexSpec
}

// secIndexSpec is one WithSecondaryIndex declaration.
type secIndexSpec struct {
	owner, relation, column string
}

// persistConfig collects WithPersistence's sub-options.
type persistConfig struct {
	dir string
	// everyN selects the checkpoint policy: 0 checkpoints after every
	// exchange that applied publications (the default), n > 0 once at
	// least n publications accumulated since the view's last checkpoint,
	// and checkpointManual only on explicit System.Checkpoint calls.
	everyN int
}

const checkpointManual = -1

// Option configures a System at construction time.
type Option func(*config)

// WithExchangeParallelism bounds the worker pool ExchangeAll uses to run
// the per-view exchange passes concurrently. Peer views are
// data-independent consumers of the shared publication bus — each owns
// its database, labeled-null interner, and cursor — so their maintenance
// runs in parallel; the default (0) uses GOMAXPROCS, and
// WithExchangeParallelism(1) restores the serial walk in peer
// registration order. Every setting produces byte-identical views (the
// scheduler determinism property test pins this down), so this is
// purely a throughput knob.
func WithExchangeParallelism(n int) Option {
	return func(c *config) { c.exchPar = n }
}

// WithBus selects the publication bus the system exchanges through: an
// in-memory bus (the default, private to this System), an HTTP bus
// shared with other nodes of the confederation (see NewHTTPBus), a
// durable ShardedFileBus, or any composition of the capability
// interfaces — BusAppender+BusReader is the required minimum.
// Push streaming is capability-detected: StartPush works iff the bus
// also implements BusWatcher; a pull-only bus simply polls on
// Exchange.
func WithBus(bus PublicationBus) Option {
	return func(c *config) { c.bus = bus }
}

// WithPersistence makes the System durable: dir becomes its state
// directory, holding per view a checksummed base snapshot and a
// journal of the net changes checkpointed since, plus a manifest of
// base generations (internal/statestore), and — when no WithBus is
// given — a durable sharded publication log (the "bus.shards"
// directory) replacing the default in-memory bus. New recovers every
// persisted view from its base snapshot and journal; the next Exchange
// then replays only the publications past the view's persisted
// cursor. Checkpoints are taken per the configured policy
// (default: after every exchange that applied publications) and via
// System.Checkpoint.
//
// With an explicit WithBus, only view state lives in dir: the bus is
// then responsible for its own durability (cmd/orchestrad -store), and
// it must retain at least every publication past the persisted
// cursors — New and Exchange fail if the bus is behind a persisted
// cursor.
func WithPersistence(dir string, popts ...PersistOption) Option {
	return func(c *config) {
		pc := &persistConfig{dir: dir}
		for _, o := range popts {
			o(pc)
		}
		c.persist = pc
	}
}

// PersistOption refines WithPersistence.
type PersistOption func(*persistConfig)

// CheckpointEvery checkpoints a view once at least n publications have
// been applied to it since its last checkpoint (amortizing snapshot
// writes across exchanges). n < 1 is treated as 1, which equals the
// default checkpoint-every-exchange policy.
func CheckpointEvery(n int) PersistOption {
	return func(pc *persistConfig) {
		if n < 1 {
			n = 1
		}
		pc.everyN = n
	}
}

// CheckpointManual disables automatic checkpoints: state is persisted
// only on explicit System.Checkpoint calls.
func CheckpointManual() PersistOption {
	return func(pc *persistConfig) { pc.everyN = checkpointManual }
}

// WithObservability attaches an operations plane to the System: every
// exchange pass is timed into o's registry (pass duration, publications
// consumed, coalescing cancellation, deletion-cascade and engine work,
// per-view cursors and bus lag, checkpoint age and durable-append
// telemetry) and traced into o's ring buffer as a span tree
// (System.Observability().Tracer().Last). Emission on hot paths is
// atomics only, so the overhead is a few percent at worst; without this
// option the instrumentation sites compile to nil-safe no-ops. Use one
// Observability per System (see NewObservability); a BusServer sharing
// the node can register into the same bundle via EnableMetrics.
func WithObservability(o *Observability) Option {
	return func(c *config) { c.obs = o }
}

// WithSlowQueryThreshold sets the latency above which a query is
// captured into the slow-query ring (System.SlowQueries, orchestrad's
// /debug/slowqueries): the full phase breakdown (parse, cache probe,
// plan, eval), the dependency generation pins the answer was computed
// against, and — because the evaluator is still alive when the
// threshold trips — the chosen physical plan. The default is 250ms;
// d <= 0 disables slow-query capture (the per-query histograms keep
// recording). The option is inert without WithObservability.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(c *config) {
		if d <= 0 {
			d = -1
		}
		c.slowQuery = d
	}
}

// WithSecondaryIndex declares a persistent secondary index on one
// column (by name) of a relation's curated instance in the owner's view
// ("" declares on the global view). The index is built when the view
// materializes — including recovery from a persisted snapshot — and the
// storage layer maintains it incrementally through every maintenance
// pass, so read-path probes on that column hit a warm index instead of
// scanning or (on the hash backend) paying a per-query transient build.
// New validates the declaration against the Spec and fails fast on an
// unknown peer, relation, or column. Declaring the same index twice is
// harmless.
func WithSecondaryIndex(owner, relation, column string) Option {
	return func(c *config) {
		c.secIdx = append(c.secIdx, secIndexSpec{owner: owner, relation: relation, column: column})
	}
}

// WithQueryCache sizes each view's query-result cache: entries is the
// per-view LRU capacity. The cache serves repeated reads without
// re-evaluation and is invalidated precisely — a maintenance pass
// touching relation R evicts only cached queries whose body mentions R,
// via per-table generation counters, so a stale answer is never served.
// Without this option every view caches up to a default number of
// entries; entries <= 0 disables caching entirely.
func WithQueryCache(entries int) Option {
	return func(c *config) {
		if entries <= 0 {
			entries = -1
		}
		c.opts.QueryCacheSize = entries
	}
}

// WithTrustFor installs (or overrides) a peer's trust policy. The Spec
// passed to New is not mutated: New builds the System over a copy with
// the merged policy map, so one parsed Spec can safely back several
// Systems with different trust configurations.
func WithTrustFor(peer string, pol *TrustPolicy) Option {
	return func(c *config) {
		if c.policies == nil {
			c.policies = make(map[string]*trust.Policy)
		}
		c.policies[peer] = pol
	}
}
