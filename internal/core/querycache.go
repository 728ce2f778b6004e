package core

import (
	"container/list"
	"slices"
	"strconv"

	"orchestra/internal/datalog"
	"orchestra/internal/obs"
	"orchestra/internal/storage"
	"orchestra/internal/value"
)

// The hot-query cache: an LRU over query results keyed by the α-renamed
// rule plus the includeNulls flag, reachable also by raw query text
// through an alias index, and validated against the per-table generation
// counters of the relations the query body read.
// Invalidation is therefore exactly as precise as the edit log's effect:
// a maintenance pass that touches relation R advances only R's output
// table generation, so only cached queries whose body mentions R go
// stale — queries over untouched relations keep serving from cache. The
// generation counters sit underneath every mutating entry point
// (including deletion cascades that reach relations the edit log never
// names), so a stale result can never be served.

// defaultQueryCacheSize is the per-view entry cap when Options leaves
// QueryCacheSize zero.
const defaultQueryCacheSize = 256

// QueryCacheMetrics carries the facade's cache counters. All fields are
// nil-safe; the zero value disables emission.
type QueryCacheMetrics struct {
	Hits, Misses, Evictions *obs.Counter
}

// cacheDep pins one body relation's exact state: the table object the
// query read and its generation at evaluation time. A dropped/recreated
// table fails the pointer compare; any mutation fails the generation
// compare.
type cacheDep struct {
	name string
	tbl  *storage.Table
	gen  uint64
}

// textKey is the alias index's key: the raw query text and the
// includeNulls flag, kept apart so an includeNulls query allocates no
// concatenated key.
type textKey struct {
	text  string
	nulls bool
}

type cacheEntry struct {
	key   string
	alias textKey // the last text that hit or stored the entry
	rows  []value.Tuple
	deps  []cacheDep
}

// queryCache is the per-view LRU. It shares the view's synchronization
// (the facade serializes all view operations), so it takes no locks. A
// nil *queryCache is a disabled cache: every method is a no-op.
//
// Entries are owned by their α-canonical key. The alias index maps a raw
// query text to the entry that text last reached, so a repeated text is
// answered without parsing or canonicalizing it. Each entry holds at most
// one alias and loses it when it is removed, so the index never outgrows
// the cache.
type queryCache struct {
	cap     int
	entries map[string]*list.Element
	aliases map[textKey]*list.Element
	lru     *list.List // front = most recently used
	metrics QueryCacheMetrics

	hits, misses, evictions uint64
}

func newQueryCache(size int) *queryCache {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = defaultQueryCacheSize
	}
	return &queryCache{
		cap:     size,
		entries: make(map[string]*list.Element),
		aliases: make(map[textKey]*list.Element),
		lru:     list.New(),
	}
}

// lookupText answers by query text alone. An unknown text is not counted:
// the caller goes on to parse it and probe by canonical key, which counts
// the hit or miss. A stale entry is evicted here, so that canonical probe
// misses and the query counts exactly one miss.
func (c *queryCache) lookupText(db *storage.Database, tk textKey) ([]value.Tuple, bool) {
	if c == nil {
		return nil, false
	}
	el, ok := c.aliases[tk]
	if !ok {
		return nil, false
	}
	return c.serve(db, el, tk)
}

// lookup returns the cached result for key when every dependency is still
// at its recorded generation, and makes tk the entry's alias; a missing or
// stale entry counts as a miss, and a stale one is evicted.
func (c *queryCache) lookup(db *storage.Database, key string, tk textKey) ([]value.Tuple, bool) {
	if c == nil {
		return nil, false
	}
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		c.metrics.Misses.Inc()
		return nil, false
	}
	rows, ok := c.serve(db, el, tk)
	if !ok {
		c.misses++
		c.metrics.Misses.Inc()
	}
	return rows, ok
}

// serve validates el's dependencies and, when they hold, counts a hit,
// makes tk its alias and returns a fresh header (callers may
// append/reorder) over the shared immutable tuples. A stale entry is
// evicted and nothing is counted.
func (c *queryCache) serve(db *storage.Database, el *list.Element, tk textKey) ([]value.Tuple, bool) {
	e := el.Value.(*cacheEntry)
	for _, d := range e.deps {
		if db.Table(d.name) != d.tbl || d.tbl.Generation() != d.gen {
			c.remove(el, e)
			return nil, false
		}
	}
	c.lru.MoveToFront(el)
	c.setAlias(el, e, tk)
	c.hits++
	c.metrics.Hits.Inc()
	out := make([]value.Tuple, len(e.rows))
	copy(out, e.rows)
	return out, true
}

// store records a result reached by text tk. deps must pin every
// relation the body read; callers pass nil to skip caching.
func (c *queryCache) store(key string, tk textKey, rows []value.Tuple, deps []cacheDep) {
	if c == nil || deps == nil {
		return
	}
	el, ok := c.entries[key]
	if ok {
		e := el.Value.(*cacheEntry)
		e.rows, e.deps = rows, deps
		c.lru.MoveToFront(el)
	} else {
		el = c.lru.PushFront(&cacheEntry{key: key, rows: rows, deps: deps})
		c.entries[key] = el
	}
	c.setAlias(el, el.Value.(*cacheEntry), tk)
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.remove(back, back.Value.(*cacheEntry))
	}
}

// setAlias makes tk the one text that reaches el, dropping el's previous
// alias. A text always parses to the same canonical key, so tk never
// aliases another entry.
func (c *queryCache) setAlias(el *list.Element, e *cacheEntry, tk textKey) {
	if e.alias == tk {
		return
	}
	delete(c.aliases, e.alias)
	e.alias = tk
	c.aliases[tk] = el
}

func (c *queryCache) remove(el *list.Element, e *cacheEntry) {
	c.lru.Remove(el)
	delete(c.entries, e.key)
	delete(c.aliases, e.alias)
	c.evictions++
	c.metrics.Evictions.Inc()
}

// stats returns the cache's lifetime counters (hits, misses, evictions).
func (c *queryCache) stats() (hits, misses, evictions uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits, c.misses, c.evictions
}

// SetQueryCacheMetrics attaches the facade's cache counters to the view's
// query cache. A no-op when the cache is disabled.
func (v *View) SetQueryCacheMetrics(m QueryCacheMetrics) {
	if v.qcache != nil {
		v.qcache.metrics = m
	}
}

// QueryCacheStats reports the view's cache counters: results served from
// cache, cache misses, and entries evicted (capacity plus staleness).
func (v *View) QueryCacheStats() (hits, misses, evictions uint64) {
	return v.qcache.stats()
}

// canonicalQueryKey renders a query rule with variables α-renamed in
// first-occurrence order, so syntactically different spellings of the
// same query share a cache entry. The first byte is the includeNulls
// flag. Constants are written in the tuple key encoding, which tags each
// with its kind: 5 and "5" never share a key. Filter descriptions are appended verbatim, and since they name the
// original variables, a filtered query's key also lists those names in
// first-occurrence order: filtered queries only share a key when their
// variables are spelled identically.
func canonicalQueryKey(r *datalog.Rule, includeNulls bool) string {
	b := make([]byte, 1, 64)
	b[0] = '0'
	if includeNulls {
		b[0] = '1'
	}
	var nameBuf [8]string
	names := nameBuf[:0] // first-occurrence order; index = canonical number
	canon := func(v string) {
		n := slices.Index(names, v)
		if n < 0 {
			n = len(names)
			names = append(names, v)
		}
		b = append(b, 'v')
		b = strconv.AppendInt(b, int64(n), 10)
	}
	writeAtom := func(a datalog.Atom) {
		b = append(b, a.Pred...)
		b = append(b, '(')
		for i, t := range a.Args {
			if i > 0 {
				b = append(b, ',')
			}
			switch t.Kind {
			case datalog.TermVar:
				canon(t.Var)
			case datalog.TermConst:
				b = append(b, 'c')
				b = value.Tuple{t.Const}.EncodeKey(b)
			case datalog.TermSkolem:
				b = append(b, "s:"...)
				b = append(b, t.Fn...)
				b = append(b, '(')
				for j, v := range t.FnArgs {
					if j > 0 {
						b = append(b, ',')
					}
					canon(v)
				}
				b = append(b, ')')
			}
		}
		b = append(b, ')')
	}
	writeAtom(r.Head)
	b = append(b, ":-"...)
	for i, l := range r.Body {
		if i > 0 {
			b = append(b, ',')
		}
		if l.Neg {
			b = append(b, '!')
		}
		writeAtom(l.Atom)
	}
	if len(r.FilterDescs) > 0 {
		for _, n := range names {
			b = append(b, '\x1f')
			b = append(b, n...)
		}
		for _, d := range r.FilterDescs {
			b = append(b, '\x1f', '\x1f')
			b = append(b, d...)
		}
	}
	return string(b)
}
