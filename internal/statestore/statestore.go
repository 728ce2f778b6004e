// Package statestore is the crash-safe checkpoint/recovery subsystem:
// durable peer state between update exchanges (§4–§5's auxiliary
// storage — the role Berkeley DB played under Tukwila in Orchestra).
//
// A Store owns one directory per system. Per view it holds a base
// snapshot (the core snapshot encoding, written via temp file + atomic
// rename + fsync) and beside it a journal of that base's later
// checkpoints: each one a frame holding the view's net change since the
// previous checkpoint and, last, its commit record (the bus cursor the
// view reached). A manifest records, for each view, the base
// generation and the cursor the base reflects. A restarting node loads
// every base, applies its journal's complete frames in order, and then
// fast-forwards each view by replaying only the publications past the
// last frame's cursor — the state is the fold of one ordered update
// sequence, and a snapshot memoises a prefix of it.
//
// Crash-safety protocol (write path). A journal append writes one
// frame at the journal's end and fsyncs it; the frame is committed once
// its checksum verifies. A full checkpoint (SaveView, the "fold"):
//
//  1. the new base generation is written to a temp file, fsynced,
//     and renamed into place, with an empty journal;
//  2. the manifest (also temp + rename + fsync) is committed, now
//     pointing at the new generation;
//  3. the previous generation's snapshot and journal are deleted (best
//     effort; Open sweeps any a crash left behind).
//
// A crash between any two steps leaves the manifest pointing at a
// complete, checksummed base: either the old generation with its
// journal (steps 1–2) or the new one (step 3). Torn writes are caught
// on load by the CRC and length in every frame header; Open truncates
// a journal's torn tail, so recovery resumes from the last complete
// frame.
//
// Invariant: a view's persisted cursor never exceeds the publication
// horizon of its base plus journal — SaveView and AppendView record the
// cursor and the state in one write, and reject cursor regressions.
//
// A directory has exactly one live Store: Open takes an exclusive
// advisory lock (a LOCK file, held until Close or process death), so
// two processes can never interleave manifest rewrites or sweep each
// other's in-flight temp files.
package statestore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/fslock"
	"orchestra/internal/obs"
)

const (
	manifestName  = "MANIFEST.json"
	lockName      = "LOCK"
	snapshotMagic = "OSS1"
	journalMagic  = "OSJ1"
	// manifestVersion guards against future format changes.
	manifestVersion = 1
)

// ViewState describes one view's persisted checkpoint: which owner it
// belongs to, the bus cursor the checkpoint reflects (the number of
// publications already applied), and the base snapshot's file
// generation. The manifest records the base's cursor; View, Views,
// ReadManifest and every caller-facing ViewState report the last
// committed journal frame's, the point recovery resumes from.
// Position, when non-empty, is the durable form of the view's typed
// bus cursor (core.Cursor.String): the same total as Cursor plus the
// per-shard breakdown push streaming resumes from. Manifests written
// before sharded cursors carry only the scalar Cursor; recovery
// discards such a snapshot and rebuilds the view from publication
// zero, as it does for a snapshot taken under another spec (a snapshot
// is a cache of the log).
type ViewState struct {
	Owner      string `json:"owner"`
	Cursor     int    `json:"cursor"`
	Position   string `json:"position,omitempty"`
	Generation uint64 `json:"generation"`
	File       string `json:"file"`
}

type manifest struct {
	Version int `json:"version"`
	// Spec fingerprints the confederation description the checkpoints
	// were taken under (core.Spec.Fingerprint). Recovery rejects a store
	// whose fingerprint does not match the running spec; spec evolution
	// re-stamps it (with fresh snapshots) after every applied operation.
	Spec  string                `json:"spec,omitempty"`
	Views map[string]*ViewState `json:"views"`
}

// Metrics holds the store's instruments. The zero value disables all of
// them (obs instruments are nil-safe).
type Metrics struct {
	// CheckpointSeconds observes each SaveView's and AppendView's wall
	// clock, in seconds.
	CheckpointSeconds *obs.Histogram
	// CheckpointBytes observes each snapshot's or journal frame's
	// payload size, in bytes.
	CheckpointBytes *obs.Histogram
	// CheckpointFailures counts SaveView and AppendView calls that
	// returned an error.
	CheckpointFailures *obs.Counter
}

// Store is a crash-safe checkpoint directory for one system's views.
// It is safe for concurrent use; callers additionally serialize
// snapshot writes per view (the facade holds the view's lock across
// SaveView so a checkpoint never tears against a concurrent exchange).
type Store struct {
	dir  string
	lock *os.File // holds the directory's advisory lock until Close

	// lastSave is the unix-nano time of the last successful SaveView
	// (the Open time until then), read lock-free by checkpoint-age
	// gauges.
	lastSave atomic.Int64
	metrics  Metrics

	mu sync.Mutex
	m  manifest
	// journals holds each persisted view's journal state; the manifest
	// describes only the bases.
	journals map[string]*journal
}

// journal is one view's current generation's journal.
type journal struct {
	// base is the base snapshot's payload size and size the journal
	// file's committed length, the two sides of the caller's fold rule.
	base, size int64
	// cursor and position are the last frame's commit record (the
	// base's while the journal is empty).
	cursor   int
	position string
	// broken is set when an append failed: the file may hold a partial
	// frame, so nothing more is appended until SaveView starts a new
	// generation.
	broken bool
}

// SetMetrics installs checkpoint instruments. Call it right after Open;
// it is not synchronized against concurrent SaveViews.
func (s *Store) SetMetrics(m Metrics) { s.metrics = m }

// LastSaveTime reports when the store last committed a snapshot or a
// journal frame (the Open time if it never has). Safe to call from
// metric callbacks — it reads one atomic.
func (s *Store) LastSaveTime() time.Time {
	return time.Unix(0, s.lastSave.Load())
}

// Open opens (creating if needed) a checkpoint directory and loads its
// manifest. A directory without a manifest is an empty store. The
// directory is locked against concurrent Stores (in this or any other
// process) until Close; a crashed holder never leaves a stale lock.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	if err := fslock.TryLock(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("statestore: %w", err)
	}
	fail := func(err error) (*Store, error) {
		lock.Close()
		return nil, err
	}
	s := &Store{dir: dir, lock: lock, m: manifest{Version: manifestVersion, Views: map[string]*ViewState{}}, journals: map[string]*journal{}}
	s.lastSave.Store(time.Now().UnixNano())
	// A crash between CreateTemp and rename orphans a temp file; nothing
	// references it, so sweep the debris of earlier runs. The lock above
	// guarantees these cannot be a live writer's in-flight files.
	if stale, err := filepath.Glob(filepath.Join(dir, "*.tmp*")); err == nil {
		for _, path := range stale {
			os.Remove(path)
		}
	}
	m, err := readManifest(dir)
	if err != nil {
		return fail(err)
	}
	for owner, vs := range m.Views {
		if vs == nil || vs.Owner != owner {
			return fail(fmt.Errorf("statestore: manifest entry %q is inconsistent", owner))
		}
		fi, err := os.Stat(filepath.Join(dir, vs.File))
		if err != nil {
			return fail(fmt.Errorf("statestore: manifest references missing snapshot for view %q: %w", owner, err))
		}
		j, err := openJournal(dir, vs, fi.Size()-frameHeaderLen)
		if err != nil {
			return fail(err)
		}
		s.journals[owner] = j
	}
	s.m = m
	s.sweepOrphans()
	return s, nil
}

// readManifest reads a directory's manifest; a directory without one is
// an empty store.
func readManifest(dir string) (manifest, error) {
	m := manifest{Version: manifestVersion, Views: map[string]*ViewState{}}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return m, nil
	} else if err != nil {
		return m, fmt.Errorf("statestore: reading manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("statestore: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("statestore: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if m.Views == nil {
		m.Views = map[string]*ViewState{}
	}
	return m, nil
}

// openJournal reads the journal of the base vs names, truncating a torn
// tail (a crash mid-append) so the next append continues after the last
// complete frame. A missing journal is an empty one.
func openJournal(dir string, vs *ViewState, base int64) (*journal, error) {
	j := &journal{base: base, cursor: vs.Cursor, position: vs.Position}
	path := filepath.Join(dir, journalFileName(vs.Owner, vs.Generation))
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return j, nil
	} else if err != nil {
		return nil, fmt.Errorf("statestore: reading journal of view %q: %w", vs.Owner, err)
	}
	frames, valid := decodeJournal(data)
	for _, fr := range frames {
		if fr.Cursor < j.cursor {
			return nil, fmt.Errorf("statestore: journal of view %q regresses its cursor %d -> %d", vs.Owner, j.cursor, fr.Cursor)
		}
		j.cursor, j.position = fr.Cursor, fr.Position
	}
	j.size = int64(valid)
	if valid < len(data) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err == nil {
			err = f.Truncate(j.size)
			if err == nil {
				err = f.Sync()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return nil, fmt.Errorf("statestore: truncating torn tail of view %q's journal: %w", vs.Owner, err)
		}
		log.Printf("statestore: view %q: repaired torn journal tail, dropped %d bytes after frame %d",
			vs.Owner, len(data)-valid, len(frames))
	}
	return j, nil
}

// sweepOrphans removes the view snapshots and journals the manifest does
// not name: a crash after a manifest commit but before the previous
// generation's files were deleted leaves them behind, and nothing would
// ever read them. Callers hold the directory lock.
func (s *Store) sweepOrphans() {
	live := make(map[string]bool, 2*len(s.m.Views))
	for _, vs := range s.m.Views {
		live[vs.File] = true
		live[journalFileName(vs.Owner, vs.Generation)] = true
	}
	for _, pattern := range []string{"view-*.snap", "view-*.jnl"} {
		paths, _ := filepath.Glob(filepath.Join(s.dir, pattern))
		for _, path := range paths {
			if !live[filepath.Base(path)] {
				os.Remove(path)
			}
		}
	}
}

// ManifestInfo is a read-only peek at a checkpoint directory's
// manifest.
type ManifestInfo struct {
	Spec  string
	Views []ViewState
}

// ReadManifest reads a checkpoint directory's manifest without taking
// the directory lock, for inspection tooling (`orchestra stats`) that
// must coexist with a live Store holding the exclusive lock. The
// manifest is replaced atomically (temp + rename), so the read is
// always internally consistent — just possibly one checkpoint behind
// the live writer. A directory without a manifest is an empty store.
func ReadManifest(dir string) (ManifestInfo, error) {
	m, err := readManifest(dir)
	if err != nil {
		return ManifestInfo{}, err
	}
	info := ManifestInfo{Spec: m.Spec}
	for _, vs := range m.Views {
		if vs == nil {
			continue
		}
		state := *vs
		// A journal being appended to may end in a partial frame, and one a
		// concurrent fold just replaced may be gone: either way the
		// complete frames are a committed prefix.
		if data, err := os.ReadFile(filepath.Join(dir, journalFileName(vs.Owner, vs.Generation))); err == nil {
			if frames, _ := decodeJournal(data); len(frames) > 0 {
				last := frames[len(frames)-1]
				state.Cursor, state.Position = last.Cursor, last.Position
			}
		}
		info.Views = append(info.Views, state)
	}
	sort.Slice(info.Views, func(i, j int) bool { return info.Views[i].Owner < info.Views[j].Owner })
	return info, nil
}

// Close releases the directory lock. The Store must not be used after
// Close; a new Open may then take over the directory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock == nil {
		return nil
	}
	err := s.lock.Close()
	s.lock = nil
	return err
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SpecFingerprint returns the spec fingerprint the store's checkpoints
// were taken under ("" for an empty or pre-fingerprint store).
func (s *Store) SpecFingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Spec
}

// SetSpecFingerprint durably records the spec fingerprint the store's
// checkpoints belong to. Callers stamp it when the store is first bound
// to a spec and re-stamp it (together with fresh snapshots) after spec
// evolution; a mismatch at open time means the directory belongs to a
// different — or stale — confederation description.
func (s *Store) SetSpecFingerprint(fp string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock == nil {
		return fmt.Errorf("statestore: store is closed")
	}
	if s.m.Spec == fp {
		return nil
	}
	updated := manifest{Version: manifestVersion, Spec: fp, Views: make(map[string]*ViewState, len(s.m.Views))}
	for o, vs := range s.m.Views {
		updated.Views[o] = vs
	}
	return s.commitManifest(updated)
}

// Views lists the persisted views, sorted by owner.
func (s *Store) Views() []ViewState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ViewState, 0, len(s.m.Views))
	for owner := range s.m.Views {
		out = append(out, s.stateLocked(owner))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// View returns one view's persisted state, if any.
func (s *Store) View(owner string) (ViewState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m.Views[owner]; !ok {
		return ViewState{}, false
	}
	return s.stateLocked(owner), true
}

// stateLocked is owner's manifest entry with the journal's committed
// cursor. Callers hold s.mu and know the entry exists.
func (s *Store) stateLocked(owner string) ViewState {
	vs := *s.m.Views[owner]
	if j := s.journals[owner]; j != nil {
		vs.Cursor, vs.Position = j.cursor, j.position
	}
	return vs
}

// SaveView atomically checkpoints one view as a new base generation
// with an empty journal: write fills in the snapshot payload (the core
// snapshot encoding); cursor is the bus position the snapshot reflects;
// specFP is the fingerprint of the spec the snapshot was taken under.
// Snapshot, cursor, and fingerprint
// commit together in one manifest write, so the persisted cursor can
// never exceed the snapshot's publication horizon and the manifest's
// spec always matches the newest snapshot — even when a crash
// interrupted a spec evolution between its per-view checkpoints (stale
// per-view snapshots are then discarded at recovery). Cursor
// regressions are rejected. position is the durable form of the typed
// bus cursor the total was taken from ("" when the caller tracks only
// scalars); the store treats it as opaque.
func (s *Store) SaveView(owner string, cursor int, position, specFP string, write func(io.Writer) error) error {
	start := time.Now()
	err := s.saveView(owner, cursor, position, specFP, write)
	s.metrics.CheckpointSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.metrics.CheckpointFailures.Inc()
		return err
	}
	s.lastSave.Store(time.Now().UnixNano())
	return nil
}

func (s *Store) saveView(owner string, cursor int, position, specFP string, write func(io.Writer) error) error {
	if cursor < 0 {
		return fmt.Errorf("statestore: negative cursor %d for view %q", cursor, owner)
	}
	var payload bytes.Buffer
	if err := write(&payload); err != nil {
		return fmt.Errorf("statestore: encoding snapshot for view %q: %w", owner, err)
	}
	s.metrics.CheckpointBytes.Observe(float64(payload.Len()))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock == nil {
		return fmt.Errorf("statestore: store is closed")
	}
	prev := s.m.Views[owner]
	gen := uint64(1)
	if prev != nil {
		if tip := s.stateLocked(owner); cursor < tip.Cursor {
			return fmt.Errorf("statestore: cursor regression for view %q: %d -> %d", owner, tip.Cursor, cursor)
		}
		gen = prev.Generation + 1
	}
	file := snapshotFileName(owner, gen)
	if err := s.writeSnapshotFile(file, payload.Bytes()); err != nil {
		return err
	}
	next := &ViewState{Owner: owner, Cursor: cursor, Position: position, Generation: gen, File: file}
	updated := manifest{Version: manifestVersion, Spec: specFP, Views: make(map[string]*ViewState, len(s.m.Views)+1)}
	for o, vs := range s.m.Views {
		updated.Views[o] = vs
	}
	updated.Views[owner] = next
	if err := s.commitManifest(updated); err != nil {
		// The manifest still points at the previous generation; drop the
		// orphaned new snapshot.
		os.Remove(filepath.Join(s.dir, file))
		return err
	}
	s.journals[owner] = &journal{base: int64(payload.Len()), cursor: cursor, position: position}
	if prev != nil && prev.File != file {
		s.removeGeneration(prev) // best effort
	}
	return nil
}

// removeGeneration deletes one base generation's snapshot and journal
// (best effort: Open sweeps what a crash or an error leaves behind).
func (s *Store) removeGeneration(vs *ViewState) {
	os.Remove(filepath.Join(s.dir, vs.File))
	os.Remove(filepath.Join(s.dir, journalFileName(vs.Owner, vs.Generation)))
}

// JournalSize reports the payload bytes of owner's base snapshot and
// the bytes of its journal, for the caller's choice between AppendView
// and SaveView. ok is false when AppendView would fail: no base exists,
// or an append failed since the base was written.
func (s *Store) JournalSize(owner string) (base, journal int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.journals[owner]
	if j == nil || j.broken || s.lock == nil {
		return 0, 0, false
	}
	return j.base, j.size, true
}

// AppendView checkpoints one view by appending a frame to its base's
// journal: record (the caller's change record since the previous
// checkpoint) followed by the commit record — cursor and position, as
// SaveView takes them. The frame is fsynced before AppendView returns;
// it is committed once it is complete on disk. Cursor regressions are
// rejected. After a failed append the journal takes no more frames
// until SaveView writes a new base.
func (s *Store) AppendView(owner string, cursor int, position string, record []byte) error {
	start := time.Now()
	n, err := s.appendView(owner, cursor, position, record)
	s.metrics.CheckpointSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.metrics.CheckpointFailures.Inc()
		return err
	}
	s.metrics.CheckpointBytes.Observe(float64(n))
	s.lastSave.Store(time.Now().UnixNano())
	return nil
}

func (s *Store) appendView(owner string, cursor int, position string, record []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock == nil {
		return 0, fmt.Errorf("statestore: store is closed")
	}
	vs, j := s.m.Views[owner], s.journals[owner]
	if vs == nil || j == nil || j.broken {
		return 0, fmt.Errorf("statestore: view %q has no base snapshot to append to", owner)
	}
	if cursor < j.cursor {
		return 0, fmt.Errorf("statestore: cursor regression for view %q: %d -> %d", owner, j.cursor, cursor)
	}
	frame := encodeJournalFrame(record, cursor, position)
	path := filepath.Join(s.dir, journalFileName(owner, vs.Generation))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		j.broken = true
		return 0, fmt.Errorf("statestore: %w", err)
	}
	// Write at the committed end, not the file's: Open truncated any torn
	// tail, and a failed append stops further ones.
	if _, err = f.WriteAt(frame, j.size); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		j.broken = true
		return 0, fmt.Errorf("statestore: appending to view %q's journal: %w", owner, err)
	}
	if j.size == 0 {
		syncDir(s.dir) // the journal file was just created
	}
	j.size += int64(len(frame))
	j.cursor, j.position = cursor, position
	return len(frame) - frameHeaderLen, nil
}

// JournalRecord is one committed journal frame: a change record and the
// cursor its checkpoint reached.
type JournalRecord struct {
	Record   []byte
	Cursor   int
	Position string
}

// LoadJournal returns the committed frames of owner's journal in append
// order (none when the base has no journal). Recovery applies them, in
// order, to the state LoadView's snapshot restores.
func (s *Store) LoadJournal(owner string) ([]JournalRecord, error) {
	s.mu.Lock()
	vs, j := s.m.Views[owner], s.journals[owner]
	if vs == nil || j == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("statestore: no persisted state for view %q", owner)
	}
	path, size := filepath.Join(s.dir, journalFileName(owner, vs.Generation)), j.size
	s.mu.Unlock()
	if size == 0 {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("statestore: reading journal of view %q: %w", owner, err)
	}
	if int64(len(data)) < size {
		return nil, fmt.Errorf("statestore: journal of view %q is %d bytes, %d committed", owner, len(data), size)
	}
	out, valid := decodeJournal(data[:size])
	if int64(valid) != size {
		return nil, fmt.Errorf("statestore: journal of view %q changed since it was opened", owner)
	}
	return out, nil
}

// LoadView opens a persisted base snapshot, verifying its length and
// checksum, and returns the state the base records plus a reader over
// the snapshot payload. The view's later checkpoints are LoadJournal's
// frames.
func (s *Store) LoadView(owner string) (ViewState, io.Reader, error) {
	s.mu.Lock()
	vs, ok := s.m.Views[owner]
	if !ok {
		s.mu.Unlock()
		return ViewState{}, nil, fmt.Errorf("statestore: no persisted state for view %q", owner)
	}
	state := *vs
	s.mu.Unlock()

	data, err := os.ReadFile(filepath.Join(s.dir, state.File))
	if err != nil {
		return state, nil, fmt.Errorf("statestore: reading snapshot for view %q: %w", owner, err)
	}
	payload, err := decodeSnapshotFile(data)
	if err != nil {
		return state, nil, fmt.Errorf("statestore: snapshot for view %q: %w", owner, err)
	}
	return state, bytes.NewReader(payload), nil
}

// Remove drops a view's persisted state (manifest entry, snapshot and
// journal). Removing an absent view is a no-op.
func (s *Store) Remove(owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock == nil {
		return fmt.Errorf("statestore: store is closed")
	}
	prev, ok := s.m.Views[owner]
	if !ok {
		return nil
	}
	updated := manifest{Version: manifestVersion, Spec: s.m.Spec, Views: make(map[string]*ViewState, len(s.m.Views))}
	for o, vs := range s.m.Views {
		if o != owner {
			updated.Views[o] = vs
		}
	}
	if err := s.commitManifest(updated); err != nil {
		return err
	}
	delete(s.journals, owner)
	s.removeGeneration(prev) // best effort
	return nil
}

// Framing: a snapshot file is one frame and a journal a sequence of
// frames, each laid out as a 4-byte magic ("OSS1" for a snapshot,
// "OSJ1" for a journal frame), uint32 CRC-32 (IEEE) of the payload,
// uint64 payload length, payload. Length and CRC catch torn or
// bit-rotted files at load time. A journal frame's payload is a change
// record followed by its commit record: the position, uint32 position
// length, uint64 cursor.

const (
	frameHeaderLen = 4 + 4 + 8
	commitLen      = 4 + 8
)

func frameHeader(magic string, payload []byte) [frameHeaderLen]byte {
	var h [frameHeaderLen]byte
	copy(h[:], magic)
	binary.BigEndian.PutUint32(h[4:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint64(h[8:], uint64(len(payload)))
	return h
}

// decodeFrame decodes the frame at the start of data, returning its
// payload and the frame's length.
func decodeFrame(data []byte, magic string) (payload []byte, n int, err error) {
	if len(data) < frameHeaderLen {
		return nil, 0, fmt.Errorf("short frame header (%d bytes, torn write?)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("bad frame magic %q", data[:len(magic)])
	}
	wantCRC := binary.BigEndian.Uint32(data[4:])
	wantLen := binary.BigEndian.Uint64(data[8:])
	if have := uint64(len(data) - frameHeaderLen); wantLen > have {
		return nil, 0, fmt.Errorf("frame payload is %d bytes, header says %d (torn write?)", have, wantLen)
	}
	payload = data[frameHeaderLen : frameHeaderLen+int(wantLen)]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, 0, fmt.Errorf("frame checksum mismatch (got %08x, want %08x)", got, wantCRC)
	}
	return payload, frameHeaderLen + int(wantLen), nil
}

// encodeJournalFrame frames a change record and its commit record
// (position, position length, cursor).
func encodeJournalFrame(record []byte, cursor int, position string) []byte {
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(record)+len(position)+commitLen)
	frame = append(frame, record...)
	frame = append(frame, position...)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(position)))
	frame = binary.BigEndian.AppendUint64(frame, uint64(cursor))
	header := frameHeader(journalMagic, frame[frameHeaderLen:])
	copy(frame, header[:])
	return frame
}

// decodeJournal parses the complete frames at the start of a journal,
// stopping at the first torn or corrupt one, and returns them with the
// length of the valid prefix: the point a crash mid-append is truncated
// back to.
func decodeJournal(data []byte) (frames []JournalRecord, valid int) {
	for valid < len(data) {
		payload, n, err := decodeFrame(data[valid:], journalMagic)
		if err != nil || len(payload) < commitLen {
			break
		}
		end := len(payload) - commitLen
		posLen := int(binary.BigEndian.Uint32(payload[end:]))
		cursor := binary.BigEndian.Uint64(payload[end+4:])
		if posLen > end || cursor > math.MaxInt {
			break
		}
		frames = append(frames, JournalRecord{
			Record:   payload[:end-posLen],
			Cursor:   int(cursor),
			Position: string(payload[end-posLen : end]),
		})
		valid += n
	}
	return frames, valid
}

func (s *Store) writeSnapshotFile(name string, payload []byte) error {
	f, err := os.CreateTemp(s.dir, name+".tmp")
	if err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	header := frameHeader(snapshotMagic, payload)
	if _, err := f.Write(header[:]); err != nil {
		return cleanup(fmt.Errorf("statestore: %w", err))
	}
	if _, err := f.Write(payload); err != nil {
		return cleanup(fmt.Errorf("statestore: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("statestore: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statestore: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statestore: %w", err)
	}
	syncDir(s.dir)
	return nil
}

func decodeSnapshotFile(data []byte) ([]byte, error) {
	payload, n, err := decodeFrame(data, snapshotMagic)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("snapshot file has %d bytes past its payload", len(data)-n)
	}
	return payload, nil
}

// commitManifest atomically replaces the manifest on disk, then
// installs the new in-memory state. Callers hold s.mu.
func (s *Store) commitManifest(m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	f, err := os.CreateTemp(s.dir, manifestName+".tmp")
	if err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("statestore: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("statestore: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statestore: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statestore: %w", err)
	}
	syncDir(s.dir)
	s.m = m
	return nil
}

// snapshotFileName derives a filesystem-safe, collision-free name for
// one view generation. The global view "" gets the sentinel "global";
// peer owners are hex-encoded (hex never collides with "global").
func snapshotFileName(owner string, gen uint64) string {
	name := "global"
	if owner != "" {
		name = hex.EncodeToString([]byte(owner))
	}
	return fmt.Sprintf("view-%s-%d.snap", name, gen)
}

// journalFileName names the journal of one base generation.
func journalFileName(owner string, gen uint64) string {
	return strings.TrimSuffix(snapshotFileName(owner, gen), ".snap") + ".jnl"
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Best effort: some platforms/filesystems reject directory syncs.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
