package obs

import (
	"strings"
	"sync"
	"time"
)

// PassTrace is the structured trace of one exchange pass — a single
// view's Exchange or a confederation-wide ExchangeAll. It is the unit
// the Tracer's ring buffer stores and the /debug/trace endpoint
// serves. A pass holds one ViewPass per view the pass maintained;
// SpanTree renders the whole thing as a conventional span tree.
//
// All methods are nil-safe, so call sites instrument unconditionally:
// with tracing off they pass a nil *PassTrace around and pay nothing.
type PassTrace struct {
	Seq    uint64     `json:"seq"`
	Kind   string     `json:"kind"` // "exchange" or "exchange_all"
	Start  time.Time  `json:"start"`
	WallNS int64      `json:"wall_ns"`
	Views  []ViewPass `json:"views"`

	mu sync.Mutex // guards Views during a parallel ExchangeAll
}

// ViewPass is one view's slice of a pass: what the exchange consumed,
// what the coalescer cancelled, how long each maintenance phase took,
// and what the engine did. Phase timings (fetch + net-effect + delete +
// insert + checkpoint) account for essentially the whole view wall
// clock; EngineNS is the portion of delete+insert spent inside engine
// fixpoints (it overlaps them, it does not add).
type ViewPass struct {
	Owner  string `json:"view"`
	WallNS int64  `json:"wall_ns"`

	// Bus consumption.
	Publications int   `json:"publications"`
	FetchNS      int64 `json:"fetch_ns"`

	// Coalescing: edits entering NetEffect vs. net base changes left
	// after insert+delete pairs cancelled.
	EditsIn           int     `json:"edits_in"`
	EditsCancelled    int     `json:"edits_cancelled"`
	CancellationRatio float64 `json:"cancellation_ratio"`
	NetEffectNS       int64   `json:"net_effect_ns"`

	// Deletion propagation (provenance cascade / DRed / recompute).
	DeleteNS        int64 `json:"delete_ns"`
	TuplesDeleted   int   `json:"tuples_deleted"`
	ProvRowsDeleted int   `json:"prov_rows_deleted"`
	Checked         int   `json:"derivability_checked"`
	Rederived       int   `json:"rederived"`

	// Insertion propagation.
	InsertNS int64 `json:"insert_ns"`

	// Base deltas actually applied.
	InsL int `json:"ins_local"`
	DelL int `json:"del_local"`
	InsR int `json:"ins_reject"`
	DelR int `json:"del_reject"`

	// Engine fixpoint work across all phases of this pass.
	Rounds    int   `json:"engine_rounds"`
	Derived   int   `json:"engine_derived"`
	Probes    int   `json:"engine_probes"`
	RuleFires int   `json:"engine_rule_fires"`
	EngineNS  int64 `json:"engine_ns"`

	// Post-exchange checkpoint, when persistence took one.
	CheckpointNS int64 `json:"checkpoint_ns"`

	// Trace ids of the publications this view consumed in the pass —
	// the link from exchange-side spans back to the originating
	// publish. Empty for passes that consumed nothing (or publications
	// that predate tracing).
	TraceIDs []string `json:"trace_ids,omitempty"`

	Err string `json:"error,omitempty"`
}

// TouchesTrace reports whether any view in the pass consumed the
// publication with the given trace id.
func (p *PassTrace) TouchesTrace(traceID string) bool {
	if p == nil || traceID == "" {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.Views {
		for _, id := range p.Views[i].TraceIDs {
			if id == traceID {
				return true
			}
		}
	}
	return false
}

// StartPass opens a pass trace of the given kind. The sequence number
// is stamped by the Tracer when the pass finishes.
func StartPass(kind string) *PassTrace {
	return &PassTrace{Kind: kind, Start: time.Now()}
}

// AddView appends one view's pass record; safe for concurrent use (a
// parallel ExchangeAll finishes views on scheduler goroutines).
func (p *PassTrace) AddView(vp ViewPass) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.Views = append(p.Views, vp)
	p.mu.Unlock()
}

// Finish stamps the pass wall clock and hands it to the tracer (which
// may be nil). It returns the pass for chaining.
func (p *PassTrace) Finish(t *Tracer) *PassTrace {
	if p == nil {
		return nil
	}
	p.WallNS = time.Since(p.Start).Nanoseconds()
	t.Add(p)
	return p
}

// Span is one node of a rendered span tree: a name, a duration, flat
// integer attributes, string labels (trace ids), and children. This is
// the JSON shape /debug/trace serves.
type Span struct {
	Name       string            `json:"name"`
	DurationNS int64             `json:"duration_ns"`
	Attrs      map[string]int64  `json:"attrs,omitempty"`
	Labels     map[string]string `json:"labels,omitempty"`
	Children   []*Span           `json:"children,omitempty"`
}

// SpanTree renders the pass as a span tree: a root span for the pass,
// one child per view, and per-phase grandchildren (fetch, net_effect,
// delete, insert, checkpoint). The view spans' durations sum to the
// pass wall clock (within scheduling slack) when the pass ran its
// views serially; a parallel ExchangeAll's view spans overlap, so
// there the sum may exceed the root duration.
func (p *PassTrace) SpanTree() *Span {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	root := &Span{
		Name:       "pass:" + p.Kind,
		DurationNS: p.WallNS,
		Attrs:      map[string]int64{"seq": int64(p.Seq), "views": int64(len(p.Views))},
	}
	for i := range p.Views {
		vp := &p.Views[i]
		vs := &Span{
			Name:       "view:" + viewName(vp.Owner),
			DurationNS: vp.WallNS,
			Attrs: map[string]int64{
				"publications":      int64(vp.Publications),
				"edits_in":          int64(vp.EditsIn),
				"edits_cancelled":   int64(vp.EditsCancelled),
				"tuples_deleted":    int64(vp.TuplesDeleted),
				"prov_rows_deleted": int64(vp.ProvRowsDeleted),
				"engine_derived":    int64(vp.Derived),
				"engine_rounds":     int64(vp.Rounds),
				"engine_probes":     int64(vp.Probes),
				"engine_ns":         vp.EngineNS,
			},
			Children: []*Span{
				{Name: "fetch", DurationNS: vp.FetchNS},
				{Name: "net_effect", DurationNS: vp.NetEffectNS},
				{Name: "delete", DurationNS: vp.DeleteNS, Attrs: map[string]int64{
					"tuples_deleted": int64(vp.TuplesDeleted),
					"checked":        int64(vp.Checked),
					"rederived":      int64(vp.Rederived),
				}},
				{Name: "insert", DurationNS: vp.InsertNS},
			},
		}
		if len(vp.TraceIDs) > 0 {
			vs.Labels = map[string]string{"trace_ids": strings.Join(vp.TraceIDs, ",")}
		}
		if vp.CheckpointNS > 0 {
			vs.Children = append(vs.Children, &Span{Name: "checkpoint", DurationNS: vp.CheckpointNS})
		}
		root.Children = append(root.Children, vs)
	}
	return root
}

// viewName renders the global view's empty owner readably.
func viewName(owner string) string {
	if owner == "" {
		return "(global)"
	}
	return owner
}

// Tracer is a bounded ring of recent pass traces. Add and Last lock
// and (for Last) allocate — they run once per pass and once per debug
// request, never inside a hot loop, and locksafe keeps them out of
// System.mu critical sections. All methods are nil-safe.
type Tracer struct {
	ring ring[*PassTrace]
}

// NewTracer returns a tracer retaining the last capacity passes
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	return &Tracer{ring: newRing[*PassTrace](capacity)}
}

// Add records a finished pass, stamping its sequence number (1-based,
// monotonically increasing).
func (t *Tracer) Add(p *PassTrace) {
	if t == nil || p == nil {
		return
	}
	t.ring.add(p, func(seq uint64) { p.Seq = seq })
}

// Last returns up to n of the most recent passes, newest first.
func (t *Tracer) Last(n int) []*PassTrace {
	if t == nil {
		return nil
	}
	return t.ring.last(n)
}

// Count reports how many passes have ever been recorded.
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.count()
}

// Observability bundles the operations plane — a metrics registry, a
// pass tracer, a publish-record ring, and a slow-query ring — as one
// value the public facade plumbs through the stack
// (orchestra.WithObservability). A nil *Observability disables all of
// it: accessors return nil, and every instrument and trace method is
// nil-safe.
type Observability struct {
	registry *Registry
	tracer   *Tracer
	pubs     *PubTracer
	slow     *SlowQueryRing
}

// NewObservability builds a fresh registry plus a tracer retaining the
// last traceCap passes (<= 0 selects the default of 64). The publish
// ring keeps 4× traceCap records (publishes outnumber passes) and the
// slow-query ring traceCap records. The registry carries the process
// identity series (orchestra_build_info, start time, uptime) from
// birth.
func NewObservability(traceCap int) *Observability {
	if traceCap <= 0 {
		traceCap = 64
	}
	reg := NewRegistry()
	registerBuildInfo(reg)
	return &Observability{
		registry: reg,
		tracer:   NewTracer(traceCap),
		pubs:     NewPubTracer(4 * traceCap),
		slow:     NewSlowQueryRing(traceCap),
	}
}

// Registry returns the metrics registry (nil when o is nil).
func (o *Observability) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.registry
}

// Tracer returns the pass tracer (nil when o is nil).
func (o *Observability) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// PubTracer returns the publish-record ring (nil when o is nil).
func (o *Observability) PubTracer() *PubTracer {
	if o == nil {
		return nil
	}
	return o.pubs
}

// SlowQueries returns the slow-query ring (nil when o is nil).
func (o *Observability) SlowQueries() *SlowQueryRing {
	if o == nil {
		return nil
	}
	return o.slow
}
