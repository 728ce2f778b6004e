package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"orchestra/internal/obs"
)

// Publication is one peer's published edit log, as stored on a bus.
// TraceID is the publication's lineage id (obs.SpanContext), taken
// from the publisher's context (or minted at the HTTP publish
// boundary) and carried across every bus implementation; "" for
// untraced publications.
type Publication struct {
	Peer    string
	Log     EditLog
	TraceID string
}

// The publication bus is the shared storage through which peers make
// their edit logs "globally available" (§2). Publications form a
// totally ordered sequence, partitioned into shards by owning peer
// (peers edit only their own relations — ValidateLog — so shards are
// independent by construction). The capabilities are split into
// composable interfaces so implementations provide only what they can:
// every bus appends and fetches; push delivery (BusWatcher) is
// capability-detected by consumers and purely an optimization — a
// pull-only bus still yields identical instances, just on the caller's
// polling cadence.

// BusAppender accepts publications. Implementations must be safe for
// concurrent use.
type BusAppender interface {
	// Append adds one publication to the end of the global sequence
	// (and of its owning peer's shard).
	Append(ctx context.Context, peer string, log EditLog) error
}

// BusReader replays the publication sequence from typed positions.
// Implementations must be safe for concurrent use.
type BusReader interface {
	// Fetch returns every publication at or after from, in global
	// order, together with the bus's horizon at read time (the cursor
	// a consumer of everything returned now holds). A cursor past the
	// horizon is clamped: Fetch returns no deltas and the (smaller)
	// horizon, which callers detect as a position regression.
	Fetch(ctx context.Context, from Cursor) ([]Delta, Cursor, error)
	// Horizon returns the current end-of-bus cursor without
	// transferring publication bodies.
	Horizon(ctx context.Context) (Cursor, error)
}

// BusWatcher pushes publications to subscribers as they are appended.
type BusWatcher interface {
	// Subscribe returns a channel delivering every delta at or after
	// from, in global order, until cancel is called or ctx is done
	// (either closes the channel). Implementations must bound their
	// buffering: a slow subscriber may stall its own channel but must
	// neither lose publications nor hold unbounded memory beyond the
	// bus's own storage.
	Subscribe(ctx context.Context, from Cursor) (<-chan Delta, CancelFunc, error)
}

// PublicationBus is the capability set the exchange machinery requires:
// append plus typed-position replay. Buses that additionally implement
// BusWatcher get push delivery; detect it with a type assertion.
type PublicationBus interface {
	BusAppender
	BusReader
}

const (
	// subscribeBuffer is each subscription channel's capacity: enough
	// to decouple the pump from a briefly busy consumer without
	// duplicating any real fraction of the bus in channel buffers.
	subscribeBuffer = 16
	// subscribeBatch bounds how many deltas a subscription pump copies
	// out of the bus per lock acquisition.
	subscribeBatch = 64
)

// MemoryBus is the in-process publication bus: the totally ordered
// delta sequence plus per-shard counts, guarded by one RWMutex, with
// wake-and-pull subscriptions. Subscribers hold a position into the
// bus's own storage and pull bounded batches from it when woken, so a
// slow subscriber delays only itself and buffers at most
// subscribeBuffer+subscribeBatch deltas outside the bus — publications
// are never dropped.
type MemoryBus struct {
	mu     sync.RWMutex
	order  []Delta
	counts map[string]int
	subs   map[int]chan struct{}
	nextID int
}

// NewMemoryBus returns an empty in-memory publication sequence.
func NewMemoryBus() *MemoryBus { return &MemoryBus{} }

// Append implements BusAppender.
func (b *MemoryBus) Append(ctx context.Context, peer string, log EditLog) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := b.Preload(peer, log, obs.TraceIDFromContext(ctx))
	return err
}

// Preload appends a publication with an explicit trace id — the replay
// path for durable buses reloading persisted publications, where the
// trace id comes from the stored frame rather than a live context. It
// returns the publication's 1-based position in the global order (the
// bus's total once it is appended).
func (b *MemoryBus) Preload(peer string, log EditLog, traceID string) (int, error) {
	if peer == "" {
		return 0, fmt.Errorf("core: publication without peer")
	}
	b.mu.Lock()
	if b.counts == nil {
		b.counts = make(map[string]int)
	}
	pos := b.counts[peer] + 1
	b.order = append(b.order, Delta{Shard: peer, Pos: pos, Pub: Publication{Peer: peer, Log: log, TraceID: traceID}})
	b.counts[peer] = pos
	total := len(b.order)
	for _, wake := range b.subs {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	b.mu.Unlock()
	return total, nil
}

// snapshotCursor returns the horizon; callers hold b.mu.
func (b *MemoryBus) snapshotCursor() Cursor {
	c := Cursor{total: len(b.order)}
	if len(b.counts) > 0 {
		c.shards = make(map[string]int, len(b.counts))
		for peer, n := range b.counts {
			c.shards[peer] = n
		}
	}
	return c
}

// Fetch implements BusReader.
func (b *MemoryBus) Fetch(ctx context.Context, from Cursor) ([]Delta, Cursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, from, err
	}
	if from.Total() < 0 {
		return nil, from, fmt.Errorf("core: negative cursor %d", from.Total())
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	start := min(from.Total(), len(b.order))
	out := make([]Delta, len(b.order)-start)
	copy(out, b.order[start:])
	return out, b.snapshotCursor(), nil
}

// Horizon implements BusReader.
func (b *MemoryBus) Horizon(ctx context.Context) (Cursor, error) {
	if err := ctx.Err(); err != nil {
		return Cursor{}, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.snapshotCursor(), nil
}

// Subscribe implements BusWatcher with the wake-and-pull idiom: the
// bus's append path sends a non-blocking wake, and a per-subscription
// pump pulls bounded batches out of the bus's storage and delivers
// them on a bounded channel. Buffering is therefore bounded regardless
// of consumer speed, and no publication can be lost: the pump's
// position only advances past deltas actually handed to the channel,
// and a wake arriving mid-batch stays latched in the 1-slot wake
// channel until the pump drains back to the horizon.
func (b *MemoryBus) Subscribe(ctx context.Context, from Cursor) (<-chan Delta, CancelFunc, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if from.Total() < 0 {
		return nil, nil, fmt.Errorf("core: negative cursor %d", from.Total())
	}
	wake := make(chan struct{}, 1)
	stop := make(chan struct{})
	out := make(chan Delta, subscribeBuffer)

	b.mu.Lock()
	if b.subs == nil {
		b.subs = make(map[int]chan struct{})
	}
	id := b.nextID
	b.nextID++
	b.subs[id] = wake
	b.mu.Unlock()

	go b.pump(ctx, from.Total(), out, wake, stop, id)

	var once sync.Once
	cancel := func() { once.Do(func() { close(stop) }) }
	return out, cancel, nil
}

// pump is a subscription's delivery goroutine.
func (b *MemoryBus) pump(ctx context.Context, pos int, out chan<- Delta, wake <-chan struct{}, stop <-chan struct{}, id int) {
	defer func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.mu.Unlock()
		close(out)
	}()
	batch := make([]Delta, 0, subscribeBatch)
	for {
		batch = batch[:0]
		b.mu.RLock()
		for i := pos; i < len(b.order) && len(batch) < subscribeBatch; i++ {
			batch = append(batch, b.order[i])
		}
		b.mu.RUnlock()
		if len(batch) == 0 {
			select {
			case <-wake:
				continue
			case <-ctx.Done():
				return
			case <-stop:
				return
			}
		}
		for _, d := range batch {
			select {
			case out <- d:
			case <-ctx.Done():
				return
			case <-stop:
				return
			}
		}
		pos += len(batch)
	}
}

// PublishTo validates a peer's edit log against the spec and appends it
// to a bus — the one publish algorithm shared by CDSS and the public
// facade. A lineage trace id already on ctx (orchestra.NewTraceContext)
// rides along; none is minted here — minting costs two crypto/rand
// reads and a context allocation, which publish-heavy workloads would
// pay on every call, so ids are minted only at explicit opt-in or at
// the HTTP publish boundary (share mints for untraced wire publishes).
func PublishTo(ctx context.Context, bus BusAppender, spec *Spec, peer string, log EditLog) error {
	if err := ValidateLog(spec, peer, log); err != nil {
		return err
	}
	return bus.Append(ctx, peer, log)
}

// ExchangeInto imports every publication on the bus since from into a
// view, one apply pass per publication in global publication order, and
// returns the new cursor. On error (including cancellation) the
// returned cursor is advanced only past fully applied publications, so
// a retry resumes where it stopped. A fully applied run returns the
// bus's horizon.
//
// This is the reference replay: ExchangeCoalesced imports the same run
// as one net apply and must end observationally identical.
func ExchangeInto(ctx context.Context, bus PublicationBus, v *View, from Cursor, strategy DeletionStrategy) (Cursor, ApplyStats, error) {
	deltas, next, stats, err := fetchRun(ctx, bus, from)
	if err != nil {
		return from, stats, err
	}
	cur := from
	for i, d := range deltas {
		if err := applyRun(ctx, v, deltas[i:i+1], strategy, &stats); err != nil {
			return cur, stats, err
		}
		cur = cur.Advance(d)
	}
	return next, stats, nil
}

// MergeLogs concatenates a run of deltas' edit logs in global
// publication order. Applying the merged log as one maintenance
// operation is equivalent to applying the logs one publication at a
// time: NetEffect simulates each tuple's membership transitions entry
// by entry, so insert+delete pairs cancel across publication boundaries
// exactly as they would have sequentially, and a completed maintenance
// operation leaves the instance a pure function of the final base
// tables (history-independence — the invariant the evolution and
// exchange equivalence property tests pin down).
func MergeLogs(deltas []Delta) EditLog {
	if len(deltas) == 1 {
		return deltas[0].Pub.Log
	}
	total := 0
	for _, d := range deltas {
		total += len(d.Pub.Log)
	}
	merged := make(EditLog, 0, total)
	for _, d := range deltas {
		merged = append(merged, d.Pub.Log...)
	}
	return merged
}

// ExchangeCoalesced imports the pending run [from, horizon) in one
// coalesced pass: the publications' edit logs are merged (MergeLogs)
// and applied as a single net maintenance operation instead of
// len(run) sequential ones.
//
// Unlike ExchangeInto, the pass is all-or-nothing: on error (including
// cancellation) the cursor does not advance at all. Retrying is still
// safe — base changes an interrupted apply already committed make the
// retried NetEffect a no-op for that prefix, and the view's dirty-
// repair machinery restores derived state before the retry propagates.
func ExchangeCoalesced(ctx context.Context, bus PublicationBus, v *View, from Cursor, strategy DeletionStrategy) (Cursor, ApplyStats, error) {
	deltas, next, stats, err := fetchRun(ctx, bus, from)
	if err == nil {
		err = applyRun(ctx, v, deltas, strategy, &stats)
	}
	if err != nil {
		return from, stats, err
	}
	return next, stats, nil
}

// ExchangeDeltas imports push-delivered deltas into a view as one
// coalesced pass, without touching the bus: the deltas were already
// transferred by the subscription, so a pushed publication needs no
// fetch.
//
// Gap detection makes it safe to apply deltas out of a buffer: a delta
// is included only if its shard position is exactly the next one the
// cursor expects (stale deltas — already consumed via an earlier pull —
// are skipped). If a gap appears (deltas were dropped, e.g. the buffer
// overflowed) or a delta carries no valid position, ExchangeDeltas
// returns handled=false with the cursor unadvanced and the caller falls
// back to a pull. Like ExchangeCoalesced the apply is all-or-nothing:
// on apply error the returned cursor is from.
func ExchangeDeltas(ctx context.Context, v *View, from Cursor, deltas []Delta, strategy DeletionStrategy) (Cursor, ApplyStats, bool, error) {
	cur := from
	run := make([]Delta, 0, len(deltas))
	for _, d := range deltas {
		switch pos := cur.Shard(d.Shard); {
		case d.Pos == pos+1:
			run = append(run, d)
			cur = cur.Advance(d)
		case d.Pos > 0 && d.Pos <= pos:
			// Already consumed (a pull raced ahead of the subscription).
		default:
			return from, ApplyStats{}, false, nil
		}
	}
	var stats ApplyStats
	if err := applyRun(ctx, v, run, strategy, &stats); err != nil {
		return from, stats, true, err
	}
	stats.PushDeltas = len(run)
	return cur, stats, true, nil
}

// fetchRun reads the pending run [from, horizon) off the bus and starts
// its stats with the fetch's accounting.
func fetchRun(ctx context.Context, bus BusReader, from Cursor) ([]Delta, Cursor, ApplyStats, error) {
	start := time.Now()
	deltas, next, err := bus.Fetch(ctx, from)
	stats := ApplyStats{FetchNS: time.Since(start).Nanoseconds()}
	if err != nil {
		return nil, from, stats, err
	}
	stats.FetchCalls = 1
	stats.FetchPublications = len(deltas)
	return deltas, next, stats, nil
}

// applyRun is the one apply step of every exchange entry point: it
// merges a run of deltas in global order (MergeLogs), applies the
// merged log to v as one maintenance operation — one NetEffect (which
// cancels insert+delete pairs before any propagation runs), one
// deletion cascade, one insertion fixpoint — and adds the operation to
// stats, counting the run's publications and trace ids only once the
// apply succeeded. An empty run applies nothing.
func applyRun(ctx context.Context, v *View, run []Delta, strategy DeletionStrategy, stats *ApplyStats) error {
	if len(run) == 0 {
		return nil
	}
	s, err := v.ApplyEdits(ctx, MergeLogs(run), strategy)
	stats.Add(s)
	if err != nil {
		return err
	}
	stats.Publications += len(run)
	for _, d := range run {
		if d.Pub.TraceID != "" {
			stats.TraceIDs = append(stats.TraceIDs, d.Pub.TraceID)
		}
	}
	return nil
}

// ValidateLog checks that an edit log is legal for a peer under a spec:
// the peer exists, every edit touches one of the peer's own relations
// (peers edit only their local instance, §2), and arities match.
func ValidateLog(spec *Spec, peer string, log EditLog) error {
	p := spec.Universe.Peer(peer)
	if p == nil {
		return fmt.Errorf("core: unknown peer %q", peer)
	}
	for _, e := range log {
		rel := spec.Universe.Relation(e.Rel)
		if rel == nil {
			return fmt.Errorf("core: edit %s references unknown relation", e)
		}
		if rel.Peer != peer {
			return fmt.Errorf("core: peer %q cannot edit relation %q of peer %q", peer, e.Rel, rel.Peer)
		}
		if len(e.Tuple) != rel.Arity() {
			return fmt.Errorf("core: edit %s has wrong arity for %s", e, rel.Name)
		}
	}
	return nil
}
