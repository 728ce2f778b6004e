package orchestra

import (
	"fmt"
	"net/http"

	"orchestra/internal/core"
	"orchestra/internal/logstore"
	"orchestra/internal/obs"
	"orchestra/internal/share"
)

// PublicationBus is the shared storage through which peers make their
// edit logs globally available (§2): the composition of BusAppender
// and BusReader — an append-only publication sequence, sharded by
// owning peer, with cursor-addressed fetch semantics. Implementations
// must be safe for concurrent use. Buses that additionally implement
// BusWatcher support push delivery (System.StartPush detects the
// capability at runtime).
type PublicationBus = core.PublicationBus

// BusAppender is the write capability of a publication bus.
type BusAppender = core.BusAppender

// BusReader is the pull capability of a publication bus:
// cursor-addressed fetch and horizon queries.
type BusReader = core.BusReader

// BusWatcher is the push capability of a publication bus: Subscribe
// streams each publication to the caller as it is appended.
type BusWatcher = core.BusWatcher

// Cursor is a typed bus position: a total publication count plus the
// per-shard breakdown push streaming resumes from. The zero Cursor is
// the beginning of the bus; String/ParseCursor give the durable form.
type Cursor = core.Cursor

// ParseCursor parses Cursor.String's durable form ("" parses to the
// zero Cursor).
func ParseCursor(s string) (Cursor, error) { return core.ParseCursor(s) }

// Delta is one publication with its position on the owning peer's
// shard — the unit Subscribe streams and Fetch returns.
type Delta = core.Delta

// CancelFunc releases a subscription. Idempotent.
type CancelFunc = core.CancelFunc

// MemoryBus is the in-process bus: a mutex-guarded publication slice.
type MemoryBus = core.MemoryBus

// NewMemoryBus returns an empty in-memory publication bus. A System
// built without WithBus gets a private one automatically; create one
// explicitly to share a bus between several embedded Systems.
func NewMemoryBus() *MemoryBus { return core.NewMemoryBus() }

// ShardedFileBus is the durable bus: one append-only segment per
// publishing peer under a directory, appended concurrently and merged
// into one global order by a per-publication sequence number; a
// publication is fsynced before it becomes fetchable. Opening the
// directory replays earlier runs' publications (repairing a tail frame
// torn by a crash mid-append), so cursors persisted by WithPersistence
// stay valid across restarts. It implements the full capability set
// (append, read, watch). A System built with WithPersistence and no
// WithBus gets one automatically, co-located in the state directory;
// open one explicitly to share a durable bus between embedded Systems.
type ShardedFileBus = logstore.ShardedBus

// OpenShardedFileBus opens (or creates) a durable sharded bus under
// dir. If legacyPath names an old single-file bus log (and dir does
// not exist yet), its publications are migrated into the sharded
// layout first — pass "" to skip migration.
func OpenShardedFileBus(dir, legacyPath string) (*ShardedFileBus, error) {
	return logstore.OpenShardedBus(dir, legacyPath)
}

// HTTPBus is a PublicationBus backed by a remote publication service
// (a BusServer, typically run by cmd/orchestrad) over the share wire
// protocol. With it, the identical application code runs federated:
// several nodes publish to and exchange from the same service.
type HTTPBus = share.Bus

// NewHTTPBus returns a bus talking to the publication service at
// baseURL, e.g. "http://localhost:8344".
func NewHTTPBus(baseURL string) *HTTPBus { return share.NewBus(baseURL) }

// BusServer is the service side of the HTTP bus: an http.Handler
// speaking the publication wire protocol (POST /publish, GET /fetch,
// /horizon, /watch), with optional spec validation and durable
// append-only persistence.
type BusServer struct {
	srv   *share.Server
	store *logstore.Store
	// reg is set by EnableMetrics so a later PersistTo can wire the
	// store's append instruments too.
	reg *obs.Registry
}

// EnableMetrics registers the publication service's instruments —
// publish accept/reject/fail counters, the publish-record lineage ring,
// and, when persisting, durable append telemetry — in o. Call it before
// serving; metrics and persistence wiring compose in either order.
func (s *BusServer) EnableMetrics(o *Observability) {
	s.srv.SetPubTracer(o.PubTracer())
	r := o.Registry()
	if r == nil {
		return
	}
	s.reg = r
	s.srv.SetMetrics(share.Metrics{
		PublishAccepted: r.Counter("orchestra_publish_accepted_total",
			"Publications the bus service accepted."),
		PublishRejected: r.Counter("orchestra_publish_rejected_total",
			"Publications the bus service rejected as illegal under the spec."),
		PublishFailed: r.Counter("orchestra_publish_failed_total",
			"Publications that failed to persist or record."),
	})
	if s.store != nil {
		s.store.SetMetrics(busAppendMetrics(r))
	}
}

// NewBusServer returns an in-memory publication service.
func NewBusServer() *BusServer { return &BusServer{srv: share.NewServer()} }

// ValidateAgainst makes the server reject publications that are illegal
// under the spec (unknown peers, edits to other peers' relations). It is
// safe to call on a serving BusServer — spec evolution re-points
// validation at the evolved spec.
func (s *BusServer) ValidateAgainst(sp *Spec) {
	s.srv.SetValidate(share.SpecValidator(sp))
}

// PersistTo durably appends every accepted publication to the given
// file, first reloading publications persisted by earlier runs so fetch
// cursors survive restarts. It returns the number of publications
// reloaded.
func (s *BusServer) PersistTo(path string) (int, error) {
	if s.store != nil {
		return 0, fmt.Errorf("orchestra: bus server already persisting")
	}
	store, err := logstore.Open(path)
	if err != nil {
		return 0, err
	}
	pubs, err := store.Replay()
	if err != nil {
		store.Close()
		return 0, err
	}
	for _, p := range pubs {
		if err := s.srv.Preload(p.Peer, p.Log, p.TraceID); err != nil {
			store.Close()
			return 0, err
		}
	}
	s.store = store
	s.srv.Persist = store.AppendTraced
	if s.reg != nil {
		store.SetMetrics(busAppendMetrics(s.reg))
	}
	return len(pubs), nil
}

// ServeHTTP implements http.Handler.
func (s *BusServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.srv.ServeHTTP(w, r)
}

// Len returns the number of publications the server holds.
func (s *BusServer) Len() int { return s.srv.Len() }

// Close releases the persistence store, if any.
func (s *BusServer) Close() error {
	if s.store == nil {
		return nil
	}
	err := s.store.Close()
	s.store = nil
	return err
}
