package statestore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// appendOrFatal appends one journal frame.
func appendOrFatal(t *testing.T, st *Store, owner string, cursor int, record string) {
	t.Helper()
	if err := st.AppendView(owner, cursor, "pos"+record, []byte(record)); err != nil {
		t.Fatal(err)
	}
}

// records renders a view's committed journal frames.
func records(t *testing.T, st *Store, owner string) []JournalRecord {
	t.Helper()
	frames, err := st.LoadJournal(owner)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func TestJournalAppendLoadAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendView("P", 1, "", []byte("r")); err == nil {
		t.Fatal("append without a base snapshot succeeded")
	}
	if err := st.SaveView("P", 2, "pos-base", "", payloadWriter("base payload")); err != nil {
		t.Fatal(err)
	}
	if frames := records(t, st, "P"); len(frames) != 0 {
		t.Fatalf("fresh base has journal frames %+v", frames)
	}
	appendOrFatal(t, st, "P", 3, "a")
	appendOrFatal(t, st, "P", 5, "b")
	if err := st.AppendView("P", 4, "", []byte("c")); err == nil {
		t.Fatal("cursor regression accepted by AppendView")
	}
	if err := st.SaveView("P", 4, "", "", payloadWriter("x")); err == nil {
		t.Fatal("SaveView accepted a cursor behind the journal's last commit")
	}
	check := func(st *Store) {
		t.Helper()
		if vs, _ := st.View("P"); vs.Cursor != 5 || vs.Position != "posb" || vs.Generation != 1 {
			t.Fatalf("view state %+v, want the last frame's commit at generation 1", vs)
		}
		if base, vs := readPayload(t, st, "P"); base.Cursor != 2 || vs != "base payload" {
			t.Fatalf("base %+v payload %q, want the cursor-2 base", base, vs)
		}
		frames := records(t, st, "P")
		if len(frames) != 2 || string(frames[0].Record) != "a" || frames[0].Cursor != 3 ||
			string(frames[1].Record) != "b" || frames[1].Cursor != 5 || frames[1].Position != "posb" {
			t.Fatalf("journal frames %+v", frames)
		}
		info, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Views) != 1 || info.Views[0].Cursor != 5 || info.Views[0].Position != "posb" {
			t.Fatalf("ReadManifest %+v, want the last frame's commit", info.Views)
		}
	}
	check(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2)
	base, size, ok := st2.JournalSize("P")
	if !ok || base != int64(len("base payload")) || size == 0 {
		t.Fatalf("JournalSize = %d, %d, %v", base, size, ok)
	}

	// A fold starts a new generation with an empty journal and deletes
	// the old generation's files.
	if err := st2.SaveView("P", 6, "", "", payloadWriter("folded")); err != nil {
		t.Fatal(err)
	}
	if frames := records(t, st2, "P"); len(frames) != 0 {
		t.Fatalf("journal after fold: %+v", frames)
	}
	if _, size, _ := st2.JournalSize("P"); size != 0 {
		t.Fatalf("journal size after fold %d", size)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "view-*"))
	if len(files) != 1 || filepath.Base(files[0]) != snapshotFileName("P", 2) {
		t.Fatalf("files after fold: %v", files)
	}
	appendOrFatal(t, st2, "P", 7, "d")
	if err := st2.Remove("P"); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "view-*")); len(files) != 0 {
		t.Fatalf("files after Remove: %v", files)
	}
}

// TestJournalTornTailTruncated: a crash mid-append leaves a partial
// frame; Open drops it, resumes from the previous commit, and the next
// append continues from there.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveView("", 1, "", "", payloadWriter("base")); err != nil {
		t.Fatal(err)
	}
	appendOrFatal(t, st, "", 2, "first")
	appendOrFatal(t, st, "", 3, "second")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFileName("", 1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if vs, _ := st.View(""); vs.Cursor != 2 {
		t.Fatalf("cursor after torn tail %d, want the previous commit 2", vs.Cursor)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(encodeJournalFrame([]byte("first"), 2, "posfirst"))) {
		t.Fatalf("journal not truncated to its complete frame: %v, %v", fi.Size(), err)
	}
	appendOrFatal(t, st, "", 4, "third")
	frames := records(t, st, "")
	if len(frames) != 2 || string(frames[1].Record) != "third" {
		t.Fatalf("frames after repair and append: %+v", frames)
	}
}

// TestOpenSweepsOrphanedGenerations: a crash after the manifest commit
// but before the old generation's files were deleted leaves them
// behind; Open removes every view file the manifest does not name.
func TestOpenSweepsOrphanedGenerations(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveView("P", 1, "", "", payloadWriter("gen1")); err != nil {
		t.Fatal(err)
	}
	appendOrFatal(t, st, "P", 2, "r")
	saved := map[string][]byte{}
	for _, name := range []string{snapshotFileName("P", 1), journalFileName("P", 1)} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = data
	}
	if err := st.SaveView("P", 3, "", "", payloadWriter("gen2")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for name := range saved {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphaned %s survived Open (%v)", name, err)
		}
	}
	if vs, data := readPayload(t, st, "P"); vs.Generation != 2 || data != "gen2" {
		t.Errorf("live generation damaged by the sweep: %+v %q", vs, data)
	}
}

// FuzzDecodeJournal throws arbitrary bytes at the journal decoder,
// seeded with real frames and a torn one. It must never panic, must
// accept only a prefix of its input, and the frames it accepts must
// re-encode to exactly that prefix — so the torn-tail truncation Open
// performs can only ever drop bytes past the last complete frame.
func FuzzDecodeJournal(f *testing.F) {
	one := encodeJournalFrame([]byte("ORJ1 record"), 7, "v1:7;P=7")
	two := append(append([]byte(nil), one...), encodeJournalFrame(nil, 8, "")...)
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, valid := decodeJournal(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d of %d bytes", valid, len(data))
		}
		var re []byte
		for _, fr := range frames {
			re = append(re, encodeJournalFrame(fr.Record, fr.Cursor, fr.Position)...)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("decode/encode round-trip drifted:\nin:  %x\nout: %x", data[:valid], re)
		}
	})
}
