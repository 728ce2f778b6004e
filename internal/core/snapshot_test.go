package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestViewSnapshotRoundTrip(t *testing.T) {
	// Load Example 3, snapshot, restore, and verify both the state and
	// that incremental operation continues correctly after restore.
	v := loadExample3(t, paperSpec(t, nil), Options{})
	var buf bytes.Buffer
	if err := v.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreView(paperSpec(t, nil), "", Options{}, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	viewsEqual(t, v, restored, "after restore")

	// Labeled nulls must resolve to the same Skolem terms.
	for _, row := range restored.Instance("U").Rows() {
		for _, val := range row {
			if val.IsNull() {
				if desc := restored.Skolems().Describe(val); !strings.Contains(desc, "sk_m3_c") {
					t.Fatalf("null lost its Skolem identity: %q", desc)
				}
			}
		}
	}

	// Continue incrementally on BOTH views: results must stay equal.
	log := EditLog{Del("B", MakeTuple(3, 2)), Ins("G", MakeTuple(7, 8, 9))}
	if _, err := v.ApplyEdits(context.Background(), log, DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.ApplyEdits(context.Background(), log, DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	viewsEqual(t, v, restored, "after post-restore edits")
}

func TestViewSnapshotSkolemContinuity(t *testing.T) {
	// New Skolem terms minted after restore must not collide with
	// persisted null ids.
	v := loadExample3(t, paperSpec(t, nil), Options{})
	before := v.Skolems().Len()
	var buf bytes.Buffer
	if err := v.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreView(paperSpec(t, nil), "", Options{}, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Skolems().Len() != before {
		t.Fatalf("interner size %d, want %d", restored.Skolems().Len(), before)
	}
	// Insert data that mints a fresh null (new B name 77 → new m3 image).
	if _, err := restored.ApplyEdits(context.Background(), EditLog{Ins("B", MakeTuple(77, 77))}, DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	if restored.Skolems().Len() != before+1 {
		t.Fatalf("interner size %d after new null, want %d", restored.Skolems().Len(), before+1)
	}
}

func TestViewSnapshotErrors(t *testing.T) {
	spec := paperSpec(t, nil)
	if _, err := RestoreView(spec, "", Options{}, strings.NewReader("BOGUS...")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Snapshot from a different spec (different internal tables) fails.
	v, err := NewView(cycleSpec(t), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyEdits(context.Background(), EditLog{Ins("A", MakeTuple(1))}, DeleteProvenance); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreView(spec, "", Options{}, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("cross-spec snapshot accepted")
	}
}

// TestChangeRecordReplay: a snapshot followed by the change records of
// the checkpoints after it, applied in order, reproduces the view —
// rows and labeled-null ids alike — and a record applied out of order
// is rejected.
func TestChangeRecordReplay(t *testing.T) {
	ctx := context.Background()
	v := loadExample3(t, paperSpec(t, nil), Options{})
	var base bytes.Buffer
	if err := v.WriteSnapshot(&base); err != nil {
		t.Fatal(err)
	}
	var untracked bytes.Buffer
	if err := v.WriteChanges(&untracked); !errors.Is(err, errChangesUntracked) {
		t.Fatalf("WriteChanges on an untracked view: %v", err)
	}
	v.TrackChanges()
	var recs []*bytes.Buffer
	for _, log := range []EditLog{
		{Ins("G", MakeTuple(7, 8, 9)), Ins("B", MakeTuple(11, 12))},
		{Del("B", MakeTuple(3, 2)), Del("G", MakeTuple(7, 8, 9))},
	} {
		if _, err := v.ApplyEdits(ctx, log, DeleteProvenance); err != nil {
			t.Fatal(err)
		}
		if n, ok := v.PendingChanges(); !ok || n == 0 {
			t.Fatalf("PendingChanges = %d, %v after an edit", n, ok)
		}
		rec := new(bytes.Buffer)
		if err := v.WriteChanges(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		v.TrackChanges()
	}

	restore := func() *View {
		t.Helper()
		r, err := RestoreView(paperSpec(t, nil), "", Options{}, bytes.NewReader(base.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := restore()
	for i, rec := range recs {
		if err := r.ApplyChanges(bytes.NewReader(rec.Bytes())); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	viewsEqual(t, v, r, "after replaying the change records")
	if r.Skolems().Len() != v.Skolems().Len() {
		t.Fatalf("interner has %d terms after replay, live view %d", r.Skolems().Len(), v.Skolems().Len())
	}

	if err := restore().ApplyChanges(bytes.NewReader(recs[1].Bytes())); err == nil {
		t.Error("a record applied before its predecessor was accepted")
	}
	if err := r.ApplyChanges(bytes.NewReader(recs[1].Bytes())); err == nil {
		t.Error("a record applied twice was accepted")
	}

	// A full recomputation clears tables: no record can express it.
	if _, err := v.FullRecompute(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.PendingChanges(); ok {
		t.Error("change tracking survived a full recomputation")
	}
}
