package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"math"
	"strings"
	"sync"
	"time"
)

// SpanContext identifies one publication's journey through the
// confederation. TraceID is minted once, when the publication enters the
// system (System.Publish, or the bus server for publications arriving
// straight over HTTP), and rides along every hop after that: the
// traceparent header on the share protocol, the trailer on durable log
// frames, and the ViewPass records of every exchange pass that consumed
// the publication. SpanID names the current hop so a receiver can tell
// which process handed it the context.
type SpanContext struct {
	TraceID string // 32 lowercase hex chars, non-zero
	SpanID  string // 16 lowercase hex chars, non-zero
}

// Valid reports whether the context carries a well-formed trace id.
func (sc SpanContext) Valid() bool {
	return isHexID(sc.TraceID, 32) && isHexID(sc.SpanID, 16)
}

// Traceparent renders the context in the W3C traceparent shape:
// 00-<trace-id>-<span-id>-01. The version and flag octets are fixed —
// orchestra always samples.
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent decodes a traceparent header. It accepts any version
// octet (per the spec, unknown versions parse by the 00 layout) and
// ignores the flags. ok is false for malformed or all-zero ids.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || len(parts[0]) != 2 {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// NewTraceID mints a 128-bit random trace id. crypto/rand never fails on
// the supported platforms; if it somehow does, the id falls back to a
// process-unique counter so publishes never block on entropy.
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a 64-bit random span id.
func NewSpanID() string { return randHex(8) }

var fallbackID struct {
	mu sync.Mutex
	n  uint64
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		fallbackID.mu.Lock()
		fallbackID.n++
		v := fallbackID.n
		fallbackID.mu.Unlock()
		for i := n - 1; i >= 0 && v > 0; i-- {
			b[i] = byte(v)
			v >>= 8
		}
		b[0] |= 1 // keep the id non-zero
	}
	return hex.EncodeToString(b)
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sc.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext extracts the span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// EnsureSpan returns ctx unchanged when it already carries a valid span
// context, and otherwise mints a fresh trace and attaches it. This is
// the single entry point publishes funnel through, so every publication
// has a trace id by the time it reaches a bus.
func EnsureSpan(ctx context.Context) (context.Context, SpanContext) {
	if sc, ok := SpanFromContext(ctx); ok {
		return ctx, sc
	}
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	return ContextWithSpan(ctx, sc), sc
}

// TraceIDFromContext returns the trace id on ctx, or "".
func TraceIDFromContext(ctx context.Context) string {
	if sc, ok := SpanFromContext(ctx); ok {
		return sc.TraceID
	}
	return ""
}

// PubRecord is the publish-side half of a publication's lineage: when
// the bus accepted it, from whom, how big it was, and how long the
// durable append took. The exchange-side half lives in the ViewPass
// records whose TraceIDs mention the same trace.
type PubRecord struct {
	TraceID  string    `json:"trace_id"`
	Peer     string    `json:"peer"`
	Cursor   int       `json:"cursor"` // bus length after the append
	Start    time.Time `json:"start"`
	Edits    int       `json:"edits"`
	AppendNS int64     `json:"append_ns"` // durable append (persist hook)
	TotalNS  int64     `json:"total_ns"`  // whole accept path
}

// PubTracer is a bounded ring of recent publish records, the analogue of
// Tracer for the write side of the bus. Add, Find, and Last lock — they
// run once per publish and once per debug request, and locksafe keeps
// them out of System.mu critical sections. All methods are nil-safe.
type PubTracer struct {
	ring ring[PubRecord]
}

// NewPubTracer returns a ring retaining the last capacity publishes
// (minimum 1).
func NewPubTracer(capacity int) *PubTracer {
	return &PubTracer{ring: newRing[PubRecord](capacity)}
}

// Add records one accepted publication.
func (t *PubTracer) Add(r PubRecord) {
	if t == nil {
		return
	}
	t.ring.add(r, nil)
}

// Find returns the most recent record for the given trace id, or nil.
func (t *PubTracer) Find(traceID string) *PubRecord {
	if t == nil || traceID == "" {
		return nil
	}
	for _, r := range t.ring.last(math.MaxInt) {
		if r.TraceID == traceID {
			return &r
		}
	}
	return nil
}

// Last returns up to n of the most recent records, newest first.
func (t *PubTracer) Last(n int) []PubRecord {
	if t == nil {
		return nil
	}
	return t.ring.last(n)
}
