package storage

import (
	"sort"

	"orchestra/internal/value"
)

// Change tracking: a persisted view's checkpoint records only what
// changed since the previous checkpoint, so the database keeps, per
// tracked table, the net effect of every insert and delete since
// TrackChanges — one entry per row key, an insert and a delete of the
// same key cancelling. Operations a per-row record cannot express
// (Clear, creating or dropping a tracked table) mark the log broken,
// and the caller falls back to a full snapshot. An untracked table
// pays one nil check per mutation.

// changeLog is one database's tracking state.
type changeLog struct {
	include func(name string) bool
	broken  bool
}

// tableChanges is one tracked table's net change: key → change. A row
// present in the map with ins=true was absent at TrackChanges and is
// present now; ins=false means the reverse.
type tableChanges struct {
	log  *changeLog
	rows map[string]RowChange
}

// RowChange is one row's net change since TrackChanges.
type RowChange struct {
	Row    value.Row
	Insert bool
}

// TableChanges is one table's net change, rows sorted by key.
type TableChanges struct {
	Table string
	Rows  []RowChange
}

func (tc *tableChanges) record(r value.Row, insert bool) {
	if prev, ok := tc.rows[r.Key]; ok && prev.Insert != insert {
		delete(tc.rows, r.Key)
		return
	}
	tc.rows[r.Key] = RowChange{Row: r, Insert: insert}
}

// TrackChanges starts (or restarts) recording the net row changes of
// every table whose name passes include, discarding what was recorded
// before. Tables failing include — transient workspaces — are never
// tracked, and creating or dropping them does not break the log.
func (db *Database) TrackChanges(include func(name string) bool) {
	db.track = &changeLog{include: include}
	for name, t := range db.tables {
		if !include(name) {
			t.track = nil
			continue
		}
		if t.track == nil {
			t.track = &tableChanges{rows: make(map[string]RowChange)}
		} else {
			clear(t.track.rows)
		}
		t.track.log = db.track
	}
}

// BreakChanges marks the change log unusable until the next
// TrackChanges, for changes the database cannot see (a recompiled
// schema). It is a no-op when nothing is tracked.
func (db *Database) BreakChanges() {
	if db.track != nil {
		db.track.broken = true
	}
}

// ChangeCount returns the number of net row changes since
// TrackChanges; ok is false when nothing is tracked or the log broke.
func (db *Database) ChangeCount() (n int, ok bool) {
	if db.track == nil || db.track.broken {
		return 0, false
	}
	for _, t := range db.tables {
		if t.track != nil {
			n += len(t.track.rows)
		}
	}
	return n, true
}

// Changes returns the net row changes since TrackChanges, sorted by
// table name and then by row key, omitting unchanged tables; ok is
// false when nothing is tracked or the log broke.
func (db *Database) Changes() (out []TableChanges, ok bool) {
	if db.track == nil || db.track.broken {
		return nil, false
	}
	for _, name := range db.Names() {
		t := db.tables[name]
		if t.track == nil || len(t.track.rows) == 0 {
			continue
		}
		rows := make([]RowChange, 0, len(t.track.rows))
		for _, c := range t.track.rows {
			rows = append(rows, c)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Row.Key < rows[j].Row.Key })
		out = append(out, TableChanges{Table: name, Rows: rows})
	}
	return out, true
}
