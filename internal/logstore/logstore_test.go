package logstore

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"orchestra/internal/core"
)

func tmpStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pub.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func sampleLog() core.EditLog {
	return core.EditLog{
		core.Ins("A", core.MakeTuple(1, "x")),
		core.Del("A", core.MakeTuple(2, "y z")),
	}
}

func TestAppendReplay(t *testing.T) {
	s, _ := tmpStore(t)
	if err := s.Append("P", sampleLog()); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("Q", core.EditLog{core.Ins("B", core.MakeTuple(7))}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	pubs, err := s.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pubs) != 2 || pubs[0].Peer != "P" || pubs[1].Peer != "Q" {
		t.Fatalf("pubs: %+v", pubs)
	}
	if len(pubs[0].Log) != 2 || pubs[0].Log[0].String() != `+A(1, "x")` {
		t.Fatalf("log content: %v", pubs[0].Log)
	}
	if pubs[0].Log[1].Insert || !pubs[0].Log[1].Tuple.Equal(core.MakeTuple(2, "y z")) {
		t.Fatalf("deletion edit: %v", pubs[0].Log[1])
	}
	// Appending after a replay still works (file position restored).
	if err := s.Append("P", sampleLog()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatal("Len after post-replay append")
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	s, path := tmpStore(t)
	if err := s.Append("P", sampleLog()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d", s2.Len())
	}
	if err := s2.Append("P", sampleLog()); err != nil {
		t.Fatal(err)
	}
	pubs, err := s2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pubs) != 2 {
		t.Fatalf("records after reopen: %d", len(pubs))
	}
}

func TestCorruptionDetected(t *testing.T) {
	_, path := tmpStore(t)
	if err := os.WriteFile(path, []byte("BAD!data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("bad magic accepted")
	}
	// An undecodable record whose bytes are all present is corruption,
	// not a torn tail: a trailing complete-but-garbage frame must stay a
	// hard error, never a silent truncation.
	s2path := filepath.Join(t.TempDir(), "garbage.log")
	s2, err := Open(s2path)
	if err != nil {
		t.Fatal(err)
	}
	s2.Append("P", sampleLog())
	s2.Close()
	f, err := os.OpenFile(s2path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Frame of length 4 followed by exactly 4 undecodable bytes.
	f.Write([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef})
	f.Close()
	if _, err := Open(s2path); err == nil {
		t.Fatal("complete garbage frame accepted")
	}
}

// corrupt appends raw bytes to a closed store file, simulating a crash
// that cut an Append short.
func corrupt(t *testing.T, path string, tail []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestTornTailRepaired injects the crash-mid-Append shapes — a partial
// frame body, a partial length header, an implausible length the file
// cannot hold — and checks Open truncates back to the last complete
// frame, keeps every preceding record, and accepts new appends.
func TestTornTailRepaired(t *testing.T) {
	frame := func(peer string) []byte {
		b, err := encodeFrame(peer, sampleLog(), "", 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		tail []byte
	}{
		{"partial frame body", append([]byte{0, 0, 0, 200}, frame("P")[:5]...)},
		{"partial length header", []byte{0, 0}},
		{"implausible length", []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.log")
			s, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append("P", sampleLog()); err != nil {
				t.Fatal(err)
			}
			if err := s.Append("Q", sampleLog()); err != nil {
				t.Fatal(err)
			}
			s.Close()
			clean, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			corrupt(t, path, tc.tail)

			s2, err := Open(path)
			if err != nil {
				t.Fatalf("torn tail not repaired: %v", err)
			}
			defer s2.Close()
			if s2.RepairedBytes() != int64(len(tc.tail)) {
				t.Errorf("RepairedBytes = %d, want %d", s2.RepairedBytes(), len(tc.tail))
			}
			if s2.Len() != 2 {
				t.Fatalf("Len after repair = %d, want 2", s2.Len())
			}
			if got, _ := os.Stat(path); got.Size() != clean.Size() {
				t.Errorf("file size after repair = %d, want %d", got.Size(), clean.Size())
			}
			// The repaired store is fully usable: replay + append + replay.
			pubs, err := s2.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if len(pubs) != 2 || pubs[0].Peer != "P" || pubs[1].Peer != "Q" {
				t.Fatalf("replay after repair: %+v", pubs)
			}
			if err := s2.Append("P", sampleLog()); err != nil {
				t.Fatal(err)
			}
			if pubs, err = s2.Replay(); err != nil || len(pubs) != 3 {
				t.Fatalf("replay after post-repair append: %d pubs, err %v", len(pubs), err)
			}
		})
	}
}

// TestTornFileHeaderRepaired covers a crash during store creation: a
// file shorter than the magic reopens as an empty store.
func TestTornFileHeaderRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "header.log")
	if err := os.WriteFile(path, []byte("OL"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("torn header not repaired: %v", err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if err := s.Append("P", sampleLog()); err != nil {
		t.Fatal(err)
	}
	pubs, err := s.Replay()
	if err != nil || len(pubs) != 1 {
		t.Fatalf("replay: %d pubs, err %v", len(pubs), err)
	}
}

// TestBusDurability round-trips publications through the durable bus,
// including recovery from a torn tail on one shard segment.
func TestBusDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bus.shards")
	b, err := OpenShardedBus(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.Append(ctx, "P", sampleLog()); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(ctx, "Q", sampleLog()); err != nil {
		t.Fatal(err)
	}
	mid, err := core.ParseCursor("v1:1;P=1")
	if err != nil {
		t.Fatal(err)
	}
	deltas, next, err := b.Fetch(ctx, mid)
	if err != nil || next.Total() != 2 || len(deltas) != 1 || deltas[0].Pub.Peer != "Q" {
		t.Fatalf("Fetch: %d deltas, next %v, err %v", len(deltas), next, err)
	}
	b.Close()
	corrupt(t, filepath.Join(dir, shardFileName("Q")), []byte{0, 0, 1, 0, 'x'}) // torn append

	b2, err := OpenShardedBus(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if b2.RepairedBytes() == 0 {
		t.Error("expected a tail repair")
	}
	deltas, next, err = b2.Fetch(ctx, core.Cursor{})
	if err != nil || next.Total() != 2 || len(deltas) != 2 {
		t.Fatalf("reloaded Fetch: %d deltas, next %v, err %v", len(deltas), next, err)
	}
}

// TestTraceStamping proves AppendTraced stamps the lineage trace id
// into the frame trailer and Replay surfaces it, while plain Append
// stays trailer-free — byte-identical to the pre-trailer format — so
// mixed logs and old log files replay cleanly.
func TestTraceStamping(t *testing.T) {
	s, path := tmpStore(t)
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	if err := s.AppendTraced("P", sampleLog(), traceID); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("Q", core.EditLog{core.Ins("B", core.MakeTuple(7))}); err != nil {
		t.Fatal(err)
	}
	pubs, err := s.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if pubs[0].TraceID != traceID {
		t.Fatalf("replayed trace id %q, want %q", pubs[0].TraceID, traceID)
	}
	if pubs[1].TraceID != "" {
		t.Fatalf("untraced publication replayed with trace id %q", pubs[1].TraceID)
	}

	// The trailer-free frame is exactly the old format: a frame encoded
	// with no trace id decodes to the same publication, and re-encoding
	// the decoded record reproduces the bytes.
	frame, err := encodeFrame("Q", core.EditLog{core.Ins("B", core.MakeTuple(7))}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("old-format frame rejected: %v", err)
	}
	if pub.Peer != "Q" || pub.TraceID != "" || len(pub.Log) != 1 {
		t.Fatalf("old-format decode: %+v", pub)
	}

	// Reopen: trace ids survive the file round trip too.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pubs, err = s2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if pubs[0].TraceID != traceID || pubs[1].TraceID != "" {
		t.Fatalf("reopened trace ids: %q, %q", pubs[0].TraceID, pubs[1].TraceID)
	}
}
