// Package storage provides the in-memory relational storage engine that
// update exchange runs against. It plays the role the paper's backends
// played (DB2 tables / Berkeley DB B-trees, §5): hash-keyed row storage
// plus optional persistent secondary indexes per column, with byte-level
// size accounting used to reproduce Figure 6's "DB size" series.
package storage

import (
	"fmt"
	"sort"

	"orchestra/internal/value"
)

// Table is a set-semantics relation instance. Rows are deduplicated by
// their canonical key encoding (value.Row), stored densely in insertion
// order — deletion swaps the tail row into the vacated slot, so iteration
// order is deterministic given the same operation sequence (map iteration
// never leaks into results). A Table is not safe for concurrent mutation;
// concurrent reads (Contains, Probe, Each, AllRows) are safe while no
// mutation is in flight.
type Table struct {
	name  string
	arity int
	// pos maps a row's canonical key to its index in rows.
	pos  map[string]int
	rows []value.Row
	// indexes maps a column position to a secondary index over that
	// column. Indexes are maintained eagerly on Insert/Delete once built —
	// this is the "Tukwila/Berkeley DB" cost model; the hash backend never
	// builds them.
	indexes map[int]*colIndex
	bytes   int
	// sorted caches the Rows() result; mutations invalidate it.
	sorted []value.Tuple
	// scratch is the reused encode buffer for mutating entry points.
	scratch []byte
	// gen counts mutations (insert, delete, clear). It never decreases, so
	// a (table pointer, generation) pair identifies one exact table state —
	// the query cache's invalidation token.
	gen uint64
	// stats caches the Stats() result; recomputed when gen has moved.
	stats    TableStats
	statsGen uint64
	statsOK  bool
	// track records net row changes for a persisted view's next
	// checkpoint (nil when untracked; see changes.go).
	track *tableChanges
}

// colIndex maps a column value to the dense bucket of rows holding it.
// Buckets are append-only on insert — the common case — and swap-delete
// by linear key scan on removal, so probe enumeration order stays
// deterministic and index maintenance costs no map operations.
type colIndex struct {
	col     int
	buckets map[value.Value][]value.Row
}

// NewTable returns an empty table with the given name and arity.
func NewTable(name string, arity int) *Table {
	return &Table{
		name:    name,
		arity:   arity,
		pos:     make(map[string]int),
		indexes: make(map[int]*colIndex),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Arity returns the number of columns.
func (t *Table) Arity() int { return t.arity }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Bytes returns the total canonical-encoding size of all rows, the unit of
// the paper's Figure 6 "DB size" measurements.
func (t *Table) Bytes() int { return t.bytes }

// Insert adds tup to the table, returning true if it was not already
// present. The tuple is cloned, so callers may reuse the slice. Callers
// that already hold the canonical key should use InsertRow, which neither
// re-encodes nor clones.
func (t *Table) Insert(tup value.Tuple) bool {
	t.checkArity(tup)
	t.scratch = tup.EncodeKey(t.scratch[:0])
	if _, exists := t.pos[string(t.scratch)]; exists {
		return false
	}
	t.insert(value.KeyedRow(tup.Clone(), string(t.scratch)))
	return true
}

// InsertRow adds a pre-keyed row, returning true if it was not already
// present. The row's tuple is stored as-is (no clone) and must not be
// mutated afterwards. A duplicate insert performs no allocation.
func (t *Table) InsertRow(r value.Row) bool {
	t.checkArity(r.Tuple)
	if _, exists := t.pos[r.Key]; exists {
		return false
	}
	t.insert(r)
	return true
}

// InsertOwned inserts a tuple whose ownership transfers to the table: on
// success it is stored without cloning and the keyed row is returned. A
// duplicate insert returns ok=false without allocating. This is the
// engine's derived-tuple path: the head tuple is freshly built, so the
// clone Insert performs would be pure waste.
func (t *Table) InsertOwned(tup value.Tuple) (r value.Row, ok bool) {
	t.checkArity(tup)
	t.scratch = tup.EncodeKey(t.scratch[:0])
	if _, exists := t.pos[string(t.scratch)]; exists {
		return value.Row{}, false
	}
	r = value.KeyedRow(tup, string(t.scratch))
	t.insert(r)
	return r, true
}

func (t *Table) insert(r value.Row) {
	t.pos[r.Key] = len(t.rows)
	t.rows = append(t.rows, r)
	t.bytes += len(r.Key)
	t.sorted = nil
	t.gen++
	for _, idx := range t.indexes {
		idx.add(r)
	}
	if t.track != nil {
		t.track.record(r, true)
	}
}

// Delete removes tup, returning true if it was present.
func (t *Table) Delete(tup value.Tuple) bool {
	t.checkArity(tup)
	t.scratch = tup.EncodeKey(t.scratch[:0])
	i, exists := t.pos[string(t.scratch)]
	if !exists {
		return false
	}
	t.deleteAt(i)
	return true
}

// DeleteRow removes a pre-keyed row, returning true if it was present.
func (t *Table) DeleteRow(r value.Row) bool {
	_, ok := t.DeleteKey(r.Key)
	return ok
}

// DeleteKey removes the row with the given canonical key, returning the
// stored tuple and whether it was present.
func (t *Table) DeleteKey(key string) (value.Tuple, bool) {
	i, exists := t.pos[key]
	if !exists {
		return nil, false
	}
	row := t.rows[i].Tuple
	t.deleteAt(i)
	return row, true
}

// deleteAt removes rows[i], swapping the tail row into its slot.
func (t *Table) deleteAt(i int) {
	r := t.rows[i]
	last := len(t.rows) - 1
	if i != last {
		moved := t.rows[last]
		t.rows[i] = moved
		t.pos[moved.Key] = i
	}
	t.rows[last] = value.Row{}
	t.rows = t.rows[:last]
	delete(t.pos, r.Key)
	t.bytes -= len(r.Key)
	t.sorted = nil
	t.gen++
	for _, idx := range t.indexes {
		idx.remove(r)
	}
	if t.track != nil {
		t.track.record(r, false)
	}
}

// Contains reports whether tup is present. It is a pure read (safe for
// concurrent use with other reads) and does not allocate for tuples whose
// encoding fits a small stack buffer.
func (t *Table) Contains(tup value.Tuple) bool {
	var arr [128]byte
	key := tup.EncodeKey(arr[:0])
	_, ok := t.pos[string(key)]
	return ok
}

// ContainsKey reports whether a row with the given canonical key is
// present.
func (t *Table) ContainsKey(key string) bool {
	_, ok := t.pos[key]
	return ok
}

// ContainsRow reports whether a pre-keyed row is present, without
// re-encoding or allocating.
func (t *Table) ContainsRow(r value.Row) bool {
	_, ok := t.pos[r.Key]
	return ok
}

// Each calls fn for every row; iteration stops if fn returns false. Rows
// must not be mutated by fn. Iteration is in storage order: insertion
// order, perturbed deterministically by swap-deletes.
func (t *Table) Each(fn func(value.Tuple) bool) {
	for i := range t.rows {
		if !fn(t.rows[i].Tuple) {
			return
		}
	}
}

// EachRow is Each over keyed rows, for callers that thread keys onward
// (snapshots, provenance refs).
func (t *Table) EachRow(fn func(value.Row) bool) {
	for i := range t.rows {
		if !fn(t.rows[i]) {
			return
		}
	}
}

// AllRows returns the table's dense row storage in storage order. The
// slice is shared with the table: callers must treat it as read-only and
// must not hold it across mutations. It is the zero-copy scan path for
// the evaluation engine, whose semi-naive rounds run against immutable
// tables.
func (t *Table) AllRows() []value.Row { return t.rows }

// Rows returns all rows, sorted, for deterministic display and testing.
// The sort is computed once and cached until the next mutation; the
// returned slice is shared and must be treated as read-only.
func (t *Table) Rows() []value.Tuple {
	if t.sorted == nil {
		out := make([]value.Tuple, 0, len(t.rows))
		for i := range t.rows {
			out = append(out, t.rows[i].Tuple)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
		t.sorted = out
	}
	return t.sorted
}

// Clear removes all rows but keeps index definitions. On a tracked
// table it breaks the database's change log.
func (t *Table) Clear() {
	if t.track != nil {
		t.track.log.broken = true
	}
	t.pos = make(map[string]int)
	t.rows = nil
	t.bytes = 0
	t.sorted = nil
	t.gen++
	for _, idx := range t.indexes {
		idx.buckets = make(map[value.Value][]value.Row)
	}
}

// Clone returns a deep copy of the table, including built indexes.
func (t *Table) Clone() *Table {
	c := NewTable(t.name, t.arity)
	c.rows = make([]value.Row, len(t.rows))
	copy(c.rows, t.rows) // rows are immutable once stored
	c.pos = make(map[string]int, len(t.pos))
	for i := range c.rows {
		c.pos[c.rows[i].Key] = i
	}
	c.bytes = t.bytes
	for col := range t.indexes {
		c.EnsureIndex(col)
	}
	return c
}

// EnsureIndex builds (if needed) and returns the secondary index on the
// given column position.
func (t *Table) EnsureIndex(col int) {
	if col < 0 || col >= t.arity {
		panic(fmt.Sprintf("storage: %s has no column %d", t.name, col))
	}
	if _, ok := t.indexes[col]; ok {
		return
	}
	idx := &colIndex{col: col, buckets: make(map[value.Value][]value.Row)}
	for i := range t.rows {
		idx.add(t.rows[i])
	}
	t.indexes[col] = idx
}

// HasIndex reports whether an index exists on the column.
func (t *Table) HasIndex(col int) bool {
	_, ok := t.indexes[col]
	return ok
}

// Probe calls fn for every row whose column col equals v, using the index
// if one exists and scanning otherwise. Iteration stops if fn returns
// false.
func (t *Table) Probe(col int, v value.Value, fn func(value.Tuple) bool) {
	if idx, ok := t.indexes[col]; ok {
		for _, r := range idx.buckets[v] {
			if !fn(r.Tuple) {
				return
			}
		}
		return
	}
	for i := range t.rows {
		if t.rows[i].Tuple[col] == v {
			if !fn(t.rows[i].Tuple) {
				return
			}
		}
	}
}

// ProbeRows returns the dense bucket of rows whose column col equals v,
// or ok=false when the column has no index. The slice is shared with the
// index: read-only, not valid across mutations. It is the zero-copy,
// zero-allocation probe path for the evaluation engine.
func (t *Table) ProbeRows(col int, v value.Value) (rows []value.Row, ok bool) {
	idx, ok := t.indexes[col]
	if !ok {
		return nil, false
	}
	return idx.buckets[v], true
}

// Index returns a stable handle on the column's secondary index, or nil
// if none exists. The handle stays valid across mutations and Clear (the
// index object is reused), so query plans may cache it.
func (t *Table) Index(col int) *ColIndex {
	return t.indexes[col]
}

// ColIndex is the exported handle of a secondary index, for plan-time
// caching by the evaluation engine.
type ColIndex = colIndex

// Rows returns the index's dense bucket for v: the rows whose indexed
// column equals v, in deterministic storage order. Shared, read-only, not
// valid across mutations.
func (ci *colIndex) Rows(v value.Value) []value.Row {
	return ci.buckets[v]
}

// ProbeCount returns the number of rows with column col equal to v.
func (t *Table) ProbeCount(col int, v value.Value) int {
	if idx, ok := t.indexes[col]; ok {
		return len(idx.buckets[v])
	}
	n := 0
	for i := range t.rows {
		if t.rows[i].Tuple[col] == v {
			n++
		}
	}
	return n
}

// Generation returns the table's mutation counter. It increments on every
// insert, delete, and Clear and never decreases, so a (table pointer,
// generation) pair names one exact table state. The query cache uses it as
// its invalidation token: a maintenance pass that never touches this table
// leaves the generation — and every cached result reading it — intact.
func (t *Table) Generation() uint64 { return t.gen }

// statsSampleCap bounds the rows scanned when estimating distinct counts
// for columns without an index; indexed columns are exact and free.
const statsSampleCap = 256

// TableStats summarizes a table for the cost-based query planner.
type TableStats struct {
	// Rows is the exact row count.
	Rows int
	// Distinct[c] estimates the number of distinct values in column c:
	// exact (bucket count) when the column has a secondary index, else
	// extrapolated from a bounded prefix sample of the row storage.
	Distinct []int
}

// Stats returns the table's statistics, recomputing lazily after
// mutations. The cost of a recompute is O(arity × min(rows, sample cap));
// between mutations it is a field read. The returned Distinct slice is
// shared with the cache — callers must not modify it. Stats caches into
// the table, so it needs the same exclusion as mutating entry points.
func (t *Table) Stats() TableStats {
	if t.statsOK && t.statsGen == t.gen {
		return t.stats
	}
	st := TableStats{Rows: len(t.rows), Distinct: make([]int, t.arity)}
	sample := len(t.rows)
	if sample > statsSampleCap {
		sample = statsSampleCap
	}
	var seen map[value.Value]struct{}
	for col := 0; col < t.arity; col++ {
		if idx, ok := t.indexes[col]; ok {
			st.Distinct[col] = len(idx.buckets)
			continue
		}
		if sample == 0 {
			continue
		}
		if seen == nil {
			seen = make(map[value.Value]struct{}, sample)
		} else {
			clear(seen)
		}
		for i := 0; i < sample; i++ {
			seen[t.rows[i].Tuple[col]] = struct{}{}
		}
		d := len(seen)
		est := d
		if sample < len(t.rows) && d*2 >= sample {
			// The sample looks high-cardinality: extrapolate linearly. A
			// plateaued sample (d << sample) is kept as-is — low-cardinality
			// columns saturate their distinct set early.
			est = d * len(t.rows) / sample
		}
		if est > len(t.rows) {
			est = len(t.rows)
		}
		st.Distinct[col] = est
	}
	t.stats, t.statsGen, t.statsOK = st, t.gen, true
	return st
}

func (t *Table) checkArity(tup value.Tuple) {
	if len(tup) != t.arity {
		panic(fmt.Sprintf("storage: %s arity %d, got tuple %v", t.name, t.arity, tup))
	}
}

func (ci *colIndex) add(r value.Row) {
	v := r.Tuple[ci.col]
	ci.buckets[v] = append(ci.buckets[v], r)
}

func (ci *colIndex) remove(r value.Row) {
	v := r.Tuple[ci.col]
	rows := ci.buckets[v]
	for i := range rows {
		if rows[i].Key == r.Key {
			last := len(rows) - 1
			rows[i] = rows[last]
			rows[last] = value.Row{}
			rows = rows[:last]
			if len(rows) == 0 {
				delete(ci.buckets, v)
			} else {
				ci.buckets[v] = rows
			}
			return
		}
	}
}
