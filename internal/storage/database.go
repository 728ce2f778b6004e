package storage

import (
	"fmt"
	"sort"
	"strings"

	"orchestra/internal/value"
)

// Database is a named collection of tables — one peer's auxiliary store in
// the paper's architecture (§4: each peer keeps "its own copy of all
// peers' relation instances and provenance" locally).
type Database struct {
	tables map[string]*Table
	// track is the change log of TrackChanges (nil when untracked).
	track *changeLog
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Create adds an empty table. It returns an error if the name is taken.
func (db *Database) Create(name string, arity int) (*Table, error) {
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := NewTable(name, arity)
	db.tables[name] = t
	db.schemaChanged(name)
	return t, nil
}

// MustCreate is Create for static initialization paths; it panics on
// duplicates.
func (db *Database) MustCreate(name string, arity int) *Table {
	t, err := db.Create(name, arity)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table { return db.tables[name] }

// Drop removes a table (used for transient query workspaces).
func (db *Database) Drop(name string) {
	if _, ok := db.tables[name]; ok {
		delete(db.tables, name)
		db.schemaChanged(name)
	}
}

// schemaChanged breaks the change log when a tracked table is created
// or dropped: a row-level record cannot express it.
func (db *Database) schemaChanged(name string) {
	if db.track != nil && db.track.include(name) {
		db.track.broken = true
	}
}

// Names returns all table names, sorted.
func (db *Database) Names() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalRows sums row counts over all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}

// TotalBytes sums canonical row bytes over all tables (Figure 6 "DB size").
func (db *Database) TotalBytes() int {
	n := 0
	for _, t := range db.tables {
		n += t.Bytes()
	}
	return n
}

// Clone deep-copies the database.
func (db *Database) Clone() *Database {
	c := NewDatabase()
	for n, t := range db.tables {
		c.tables[n] = t.Clone()
	}
	return c
}

// Dump renders non-empty tables (optionally filtered by prefix list) for
// debugging and the CLI.
func (db *Database) Dump(names ...string) string {
	var pick []string
	if len(names) == 0 {
		pick = db.Names()
	} else {
		pick = names
	}
	var b strings.Builder
	for _, n := range pick {
		t := db.tables[n]
		if t == nil || t.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s (%d rows):\n", n, t.Len())
		for _, row := range t.Rows() {
			fmt.Fprintf(&b, "  %s\n", row)
		}
	}
	return b.String()
}

// Delta is a set of insertions and deletions against one relation.
// Insertions and deletions are kept deduplicated and mutually exclusive:
// inserting a tuple cancels a pending deletion of it and vice versa (the
// paper assumes no data dependencies inside one published batch, §3.1).
// Entries are keyed rows, so each tuple is canonically encoded once when
// it enters the delta and the key rides along into table operations.
type Delta struct {
	ins map[string]value.Tuple
	del map[string]value.Tuple
}

// NewDelta returns an empty delta.
func NewDelta() *Delta {
	return &Delta{ins: make(map[string]value.Tuple), del: make(map[string]value.Tuple)}
}

// Insert records an insertion, cancelling any pending deletion of tup.
// The tuple is cloned; callers already holding a keyed row should use
// InsertRow.
func (d *Delta) Insert(tup value.Tuple) {
	d.InsertRow(value.NewRow(tup.Clone()))
}

// InsertRow is Insert for a pre-keyed row (no clone, no re-encode).
func (d *Delta) InsertRow(r value.Row) {
	if _, ok := d.del[r.Key]; ok {
		delete(d.del, r.Key)
		return
	}
	d.ins[r.Key] = r.Tuple
}

// Delete records a deletion, cancelling any pending insertion of tup.
// The tuple is cloned; callers already holding a keyed row should use
// DeleteRow.
func (d *Delta) Delete(tup value.Tuple) {
	d.DeleteRow(value.NewRow(tup.Clone()))
}

// DeleteRow is Delete for a pre-keyed row (no clone, no re-encode).
func (d *Delta) DeleteRow(r value.Row) {
	if _, ok := d.ins[r.Key]; ok {
		delete(d.ins, r.Key)
		return
	}
	d.del[r.Key] = r.Tuple
}

// Ins returns the sorted insertions.
func (d *Delta) Ins() []value.Tuple { return sortedTuples(d.ins) }

// Del returns the sorted deletions.
func (d *Delta) Del() []value.Tuple { return sortedTuples(d.del) }

// InsRows returns the sorted insertions as keyed rows.
func (d *Delta) InsRows() []value.Row { return sortedRows(d.ins) }

// DelRows returns the sorted deletions as keyed rows.
func (d *Delta) DelRows() []value.Row { return sortedRows(d.del) }

// Empty reports whether the delta holds no changes.
func (d *Delta) Empty() bool { return len(d.ins) == 0 && len(d.del) == 0 }

// Size returns the number of recorded changes.
func (d *Delta) Size() int { return len(d.ins) + len(d.del) }

func sortedTuples(m map[string]value.Tuple) []value.Tuple {
	out := make([]value.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func sortedRows(m map[string]value.Tuple) []value.Row {
	out := make([]value.Row, 0, len(m))
	for key, t := range m {
		out = append(out, value.KeyedRow(t, key))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

// DeltaSet maps relation names to deltas. It is the currency of update
// exchange: published edit logs become DeltaSets over local-contribution
// and rejection tables.
type DeltaSet map[string]*Delta

// At returns the delta for rel, creating it if needed.
func (ds DeltaSet) At(rel string) *Delta {
	d, ok := ds[rel]
	if !ok {
		d = NewDelta()
		ds[rel] = d
	}
	return d
}

// Insert records an insertion into rel.
func (ds DeltaSet) Insert(rel string, tup value.Tuple) { ds.At(rel).Insert(tup) }

// Delete records a deletion from rel.
func (ds DeltaSet) Delete(rel string, tup value.Tuple) { ds.At(rel).Delete(tup) }

// Empty reports whether every delta is empty.
func (ds DeltaSet) Empty() bool {
	for _, d := range ds {
		if !d.Empty() {
			return false
		}
	}
	return true
}

// Size returns the total number of changes across relations.
func (ds DeltaSet) Size() int {
	n := 0
	for _, d := range ds {
		n += d.Size()
	}
	return n
}

// Relations returns the sorted relation names with non-empty deltas.
func (ds DeltaSet) Relations() []string {
	out := make([]string, 0, len(ds))
	for n, d := range ds {
		if !d.Empty() {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
