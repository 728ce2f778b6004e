package share

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/obs"
)

// Metrics holds the publication service's instruments. The zero value
// disables all of them (obs instruments are nil-safe).
type Metrics struct {
	// PublishAccepted counts publications admitted to the sequence.
	PublishAccepted *obs.Counter
	// PublishRejected counts publications refused by validation (422).
	PublishRejected *obs.Counter
	// PublishFailed counts publications that passed validation but could
	// not be persisted (500).
	PublishFailed *obs.Counter
	// WatchStreams counts /watch connections accepted.
	WatchStreams *obs.Counter
	// WatchDeltas counts deltas pushed over /watch streams.
	WatchDeltas *obs.Counter
}

// Server is the publication service. Accepted publications live on an
// embedded core.MemoryBus — the same sharded sequence the in-process
// bus uses — so /fetch and /watch serve typed cursors and per-shard
// positions, and /watch streams straight off the bus's subscription
// machinery. The server optionally validates incoming publications
// against a Spec (peers edit only their own relations) and can persist
// them through a Persist hook (e.g. a logstore.Store).
type Server struct {
	mem *core.MemoryBus

	// mu guards the mutable hooks below (swapped at runtime by spec
	// evolution), not the publication storage — mem has its own lock.
	mu sync.RWMutex

	// Validate, when non-nil, admits only publications legal under the
	// spec.
	Validate func(peer string, log core.EditLog) error
	// Persist, when non-nil, is invoked for every accepted publication
	// with its lineage trace id (durable stores stamp it into the
	// frame).
	Persist func(peer string, log core.EditLog, traceID string) error

	metrics  Metrics
	pubTrace *obs.PubTracer
}

// SetPubTracer installs the publish-record ring accepted publications
// are recorded into. Call it before the server starts serving.
func (s *Server) SetPubTracer(t *obs.PubTracer) { s.pubTrace = t }

// SetMetrics installs publish instruments. Call it before the server
// starts serving; it is not synchronized against in-flight requests.
func (s *Server) SetMetrics(m Metrics) { s.metrics = m }

// NewServer returns an empty in-memory publication service.
func NewServer() *Server { return &Server{mem: core.NewMemoryBus()} }

// SpecValidator builds a Validate func from a CDSS spec.
func SpecValidator(spec *core.Spec) func(string, core.EditLog) error {
	return func(peer string, log core.EditLog) error {
		return core.ValidateLog(spec, peer, log)
	}
}

// SetValidate replaces the validator under the server's lock — the safe
// way to swap validation on a serving daemon (spec evolution replaces
// the spec at runtime). Direct assignment of Validate remains fine
// before the server starts serving.
func (s *Server) SetValidate(fn func(string, core.EditLog) error) {
	s.mu.Lock()
	s.Validate = fn
	s.mu.Unlock()
}

// Len returns the number of accepted publications.
func (s *Server) Len() int {
	//orchestralint:ignore ctxflow a count accessor has no caller context, and the in-memory bus's Horizon consults ctx only to fail on a done one
	h, _ := s.mem.Horizon(context.Background())
	return h.Total()
}

// Preload appends an already-persisted publication without re-validating
// or re-persisting it — used when reloading a logstore at startup. The
// trace id comes from the stored frame ("" for pre-tracing records).
func (s *Server) Preload(peer string, log core.EditLog, traceID string) error {
	if peer == "" {
		return fmt.Errorf("share: publication without peer")
	}
	_, err := s.mem.Preload(peer, log, traceID)
	return err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/publish":
		s.handlePublish(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/fetch":
		s.handleFetch(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/horizon":
		s.handleHorizon(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/watch":
		s.handleWatch(w, r)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var wp wirePublication
	if err := json.Unmarshal(body, &wp); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	peer, log, err := fromWire(wp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Resolve the publication's lineage id: the traceparent header wins
	// (the publisher minted it), then a trace id already in the body
	// (client forwarding a stored publication), then a fresh mint — so
	// every accepted publication has one.
	if sc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		wp.Trace = sc.TraceID
	} else if wp.Trace == "" {
		wp.Trace = obs.NewTraceID()
	}
	s.mu.RLock()
	validate := s.Validate
	s.mu.RUnlock()
	if validate != nil {
		if err := validate(peer, log); err != nil {
			s.metrics.PublishRejected.Inc()
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
	}
	var appendNS int64
	if s.Persist != nil {
		persistStart := time.Now()
		if err := s.Persist(peer, log, wp.Trace); err != nil {
			s.metrics.PublishFailed.Inc()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		appendNS = time.Since(persistStart).Nanoseconds()
	}
	s.metrics.PublishAccepted.Inc()
	// Preload (not Append) carries the already-resolved trace id; it also
	// wakes every /watch stream parked on the bus. n is this publication's
	// own position — reading the bus length afterwards would race with
	// concurrent publishes.
	n, err := s.mem.Preload(peer, log, wp.Trace)
	if err != nil {
		s.metrics.PublishFailed.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.pubTrace.Add(obs.PubRecord{
		TraceID:  wp.Trace,
		Peer:     peer,
		Cursor:   n,
		Start:    start,
		Edits:    len(log),
		AppendNS: appendNS,
		TotalNS:  time.Since(start).Nanoseconds(),
	})
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"cursor":%d,"trace":%q}`, n, wp.Trace)
}

// parseCursorParam reads the typed cursor query parameter shared by
// /fetch and /watch ("" means from the beginning).
func parseCursorParam(r *http.Request) (core.Cursor, error) {
	return core.ParseCursor(r.URL.Query().Get("cursor"))
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	from, err := parseCursorParam(r)
	if err != nil {
		http.Error(w, "bad cursor: "+err.Error(), http.StatusBadRequest)
		return
	}
	deltas, next, err := s.mem.Fetch(r.Context(), from)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := fetchResponse{Cursor: next.String(), Deltas: make([]wireDelta, 0, len(deltas))}
	for _, d := range deltas {
		resp.Deltas = append(resp.Deltas, toWireDelta(d))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHorizon(w http.ResponseWriter, r *http.Request) {
	h, err := s.mem.Horizon(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(horizonResponse{Cursor: h.String()})
}

// watchHeartbeat is how often an idle /watch stream emits a blank
// keep-alive line, letting both ends notice a dead connection.
const watchHeartbeat = 15 * time.Second

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	from, err := parseCursorParam(r)
	if err != nil {
		http.Error(w, "bad cursor: "+err.Error(), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel, err := s.mem.Subscribe(r.Context(), from)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer cancel()
	s.metrics.WatchStreams.Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	heartbeat := time.NewTicker(watchHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case d, ok := <-ch:
			if !ok {
				return // subscription ended (request context cancelled)
			}
			if err := enc.Encode(toWireDelta(d)); err != nil {
				return // client went away
			}
			s.metrics.WatchDeltas.Inc()
			flusher.Flush()
		case <-heartbeat.C:
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
