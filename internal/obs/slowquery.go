package obs

import "time"

// QueryDep pins one body relation's generation at evaluation time — the
// read path's cache-validity witness, surfaced so a slow-query record
// shows exactly which table states the answer was computed against.
type QueryDep struct {
	Rel string `json:"rel"`
	Gen uint64 `json:"gen"`
}

// QueryStats is the per-query span: one record per executed query with
// the phase breakdown the read path measures (parse, cache probe, plan,
// eval), the cache outcome, the rows returned, and — for queries over
// the slow threshold — the rendered physical plan and dependency pins.
type QueryStats struct {
	Query   string     `json:"query"`
	Outcome string     `json:"outcome"` // "hit", "miss", or "uncached"
	Start   time.Time  `json:"start"`
	ParseNS int64      `json:"parse_ns"`
	CacheNS int64      `json:"cache_ns"`
	PlanNS  int64      `json:"plan_ns"`
	EvalNS  int64      `json:"eval_ns"`
	WallNS  int64      `json:"wall_ns"`
	Rows    int        `json:"rows"`
	Deps    []QueryDep `json:"deps,omitempty"`
	Plan    string     `json:"plan,omitempty"`
}

// SlowQueryRing is a bounded ring of queries that exceeded the slow
// threshold, newest-first on read — the data behind orchestrad's
// /debug/slowqueries. Add and Last lock; they run once per slow query
// and once per debug request, and locksafe keeps them out of System.mu
// critical sections. All methods are nil-safe.
type SlowQueryRing struct {
	ring ring[QueryStats]
}

// NewSlowQueryRing returns a ring retaining the last capacity slow
// queries (minimum 1).
func NewSlowQueryRing(capacity int) *SlowQueryRing {
	return &SlowQueryRing{ring: newRing[QueryStats](capacity)}
}

// Add records one slow query.
func (r *SlowQueryRing) Add(st QueryStats) {
	if r == nil {
		return
	}
	r.ring.add(st, nil)
}

// Last returns up to n of the most recent slow queries, newest first.
func (r *SlowQueryRing) Last(n int) []QueryStats {
	if r == nil {
		return nil
	}
	return r.ring.last(n)
}

// Count reports how many slow queries have ever been recorded.
func (r *SlowQueryRing) Count() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.count()
}
