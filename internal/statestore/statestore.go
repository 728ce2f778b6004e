// Package statestore is the crash-safe checkpoint/recovery subsystem:
// durable peer state between update exchanges (§4–§5's auxiliary
// storage — the role Berkeley DB played under Tukwila in Orchestra).
//
// A Store owns one directory per system. It holds a checksummed
// snapshot file per view (the core snapshot encoding, written via
// temp file + atomic rename + fsync) and a manifest recording, for
// each view, its publication-bus cursor and snapshot generation. A
// restarting node reloads every snapshot and then fast-forwards each
// view by replaying only the publications past its persisted cursor.
//
// Crash-safety protocol (write path):
//
//  1. the new snapshot generation is written to a temp file, fsynced,
//     and renamed into place;
//  2. the manifest (also temp + rename + fsync) is committed, now
//     pointing at the new generation;
//  3. the previous generation's file is deleted (best effort).
//
// A crash between any two steps leaves the manifest pointing at a
// complete, checksummed snapshot: either the old generation (steps
// 1–2) or the new one (step 3). Torn writes are caught on load by the
// CRC and length recorded in the snapshot header.
//
// Invariant: a view's persisted cursor never exceeds its snapshot's
// publication horizon — SaveView records the cursor and the snapshot
// bytes in one call, and rejects cursor regressions.
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
	"os"
	"path/filepath"
	"sort"
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
	// manifestVersion guards against future format changes.
	manifestVersion = 1
)

// ViewState describes one view's persisted checkpoint: which owner it
// belongs to, the bus cursor the snapshot reflects (the number of
// publications already applied), and the snapshot file generation.
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
	// CheckpointSeconds observes each SaveView's wall clock, in seconds.
	CheckpointSeconds *obs.Histogram
	// CheckpointBytes observes each snapshot's payload size, in bytes.
	CheckpointBytes *obs.Histogram
	// CheckpointFailures counts SaveView calls that returned an error.
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
}

// SetMetrics installs checkpoint instruments. Call it right after Open;
// it is not synchronized against concurrent SaveViews.
func (s *Store) SetMetrics(m Metrics) { s.metrics = m }

// LastSaveTime reports when the store last committed a snapshot (the
// Open time if it never has). Safe to call from metric callbacks — it
// reads one atomic.
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
	s := &Store{dir: dir, lock: lock, m: manifest{Version: manifestVersion, Views: map[string]*ViewState{}}}
	s.lastSave.Store(time.Now().UnixNano())
	// A crash between CreateTemp and rename orphans a temp file; nothing
	// references it, so sweep the debris of earlier runs. The lock above
	// guarantees these cannot be a live writer's in-flight files.
	if stale, err := filepath.Glob(filepath.Join(dir, "*.tmp*")); err == nil {
		for _, path := range stale {
			os.Remove(path)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return s, nil
	} else if err != nil {
		return fail(fmt.Errorf("statestore: reading manifest: %w", err))
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fail(fmt.Errorf("statestore: corrupt manifest: %w", err))
	}
	if m.Version != manifestVersion {
		return fail(fmt.Errorf("statestore: manifest version %d, want %d", m.Version, manifestVersion))
	}
	if m.Views == nil {
		m.Views = map[string]*ViewState{}
	}
	for owner, vs := range m.Views {
		if vs == nil || vs.Owner != owner {
			return fail(fmt.Errorf("statestore: manifest entry %q is inconsistent", owner))
		}
		if _, err := os.Stat(filepath.Join(dir, vs.File)); err != nil {
			return fail(fmt.Errorf("statestore: manifest references missing snapshot for view %q: %w", owner, err))
		}
	}
	s.m = m
	return s, nil
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
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return ManifestInfo{}, nil
	} else if err != nil {
		return ManifestInfo{}, fmt.Errorf("statestore: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return ManifestInfo{}, fmt.Errorf("statestore: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return ManifestInfo{}, fmt.Errorf("statestore: manifest version %d, want %d", m.Version, manifestVersion)
	}
	info := ManifestInfo{Spec: m.Spec}
	for _, vs := range m.Views {
		if vs != nil {
			info.Views = append(info.Views, *vs)
		}
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
	for _, vs := range s.m.Views {
		out = append(out, *vs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// View returns one view's persisted state, if any.
func (s *Store) View(owner string) (ViewState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs, ok := s.m.Views[owner]
	if !ok {
		return ViewState{}, false
	}
	return *vs, true
}

// SaveView atomically checkpoints one view: write fills in the
// snapshot payload (the core snapshot encoding); cursor is the bus
// position the snapshot reflects; specFP is the fingerprint of the spec
// the snapshot was taken under. Snapshot, cursor, and fingerprint
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
		if cursor < prev.Cursor {
			return fmt.Errorf("statestore: cursor regression for view %q: %d -> %d", owner, prev.Cursor, cursor)
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
	if prev != nil && prev.File != file {
		os.Remove(filepath.Join(s.dir, prev.File)) // best effort
	}
	return nil
}

// LoadView opens a persisted snapshot, verifying its length and
// checksum, and returns the recorded state plus a reader over the
// snapshot payload.
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

// Remove drops a view's persisted state (manifest entry + snapshot
// file). Removing an absent view is a no-op.
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
	os.Remove(filepath.Join(s.dir, prev.File)) // best effort
	return nil
}

// Snapshot file layout: magic "OSS1", uint32 CRC-32 (IEEE) of the
// payload, uint64 payload length, payload. Length and CRC catch torn
// or bit-rotted snapshots at load time.

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
	var header [len(snapshotMagic) + 4 + 8]byte
	copy(header[:], snapshotMagic)
	binary.BigEndian.PutUint32(header[4:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint64(header[8:], uint64(len(payload)))
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
	headerLen := len(snapshotMagic) + 4 + 8
	if len(data) < headerLen {
		return nil, fmt.Errorf("short snapshot file (%d bytes)", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("bad snapshot magic %q", data[:len(snapshotMagic)])
	}
	wantCRC := binary.BigEndian.Uint32(data[4:])
	wantLen := binary.BigEndian.Uint64(data[8:])
	payload := data[headerLen:]
	if uint64(len(payload)) != wantLen {
		return nil, fmt.Errorf("snapshot payload is %d bytes, header says %d (torn write?)", len(payload), wantLen)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("snapshot checksum mismatch (got %08x, want %08x)", got, wantCRC)
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
