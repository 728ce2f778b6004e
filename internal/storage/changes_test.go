package storage

import (
	"strings"
	"testing"

	"orchestra/internal/value"
)

func notWorkspace(name string) bool { return !strings.HasPrefix(name, "q$") }

func TestChangeTrackingNetEffect(t *testing.T) {
	db := NewDatabase()
	r := db.MustCreate("R", 1)
	s := db.MustCreate("S", 1)
	tup := func(i int64) value.Tuple { return value.Tuple{value.Int(i)} }
	r.Insert(tup(1))
	s.Insert(tup(2))
	if _, ok := db.ChangeCount(); ok {
		t.Fatal("an untracked database reports changes")
	}

	db.TrackChanges(notWorkspace)
	r.Insert(tup(3)) // inserted, then deleted: cancels
	r.Delete(tup(3))
	r.Delete(tup(1)) // deleted, then re-inserted: cancels
	r.Insert(tup(1))
	r.Insert(tup(5))
	s.Delete(tup(2))
	s.Insert(tup(4))
	q := db.MustCreate("q$ans", 1) // workspaces are neither tracked nor break the log
	q.Insert(tup(9))
	db.Drop("q$ans")

	if n, ok := db.ChangeCount(); !ok || n != 3 {
		t.Fatalf("ChangeCount = %d, %v; want 3 net changes", n, ok)
	}
	changes, ok := db.Changes()
	if !ok || len(changes) != 2 || changes[0].Table != "R" || changes[1].Table != "S" {
		t.Fatalf("changes %+v, %v", changes, ok)
	}
	if rows := changes[0].Rows; len(rows) != 1 || !rows[0].Insert || !rows[0].Row.Tuple.Equal(tup(5)) {
		t.Fatalf("R changes %+v", rows)
	}
	// S: the delete of 2 and the insert of 4, sorted by key.
	if rows := changes[1].Rows; len(rows) != 2 || rows[0].Row.Key > rows[1].Row.Key {
		t.Fatalf("S changes %+v, want two sorted by key", rows)
	}

	db.TrackChanges(notWorkspace)
	if n, ok := db.ChangeCount(); !ok || n != 0 {
		t.Fatalf("restarted tracking still reports %d changes (%v)", n, ok)
	}
}

func TestChangeTrackingBreaks(t *testing.T) {
	for name, op := range map[string]func(db *Database){
		"clear":  func(db *Database) { db.Table("R").Clear() },
		"create": func(db *Database) { db.MustCreate("T", 1) },
		"drop":   func(db *Database) { db.Drop("R") },
		"break":  func(db *Database) { db.BreakChanges() },
	} {
		db := NewDatabase()
		db.MustCreate("R", 1).Insert(value.Tuple{value.Int(1)})
		db.TrackChanges(notWorkspace)
		op(db)
		if _, ok := db.Changes(); ok {
			t.Errorf("%s: change log still usable", name)
		}
		db.TrackChanges(notWorkspace)
		if _, ok := db.Changes(); !ok {
			t.Errorf("%s: TrackChanges did not restart the log", name)
		}
	}
}
