package orchestra

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/logstore"
	"orchestra/internal/statestore"
)

// busLogName is the single-file publication log earlier releases
// co-located with the view snapshots; it is only read once, as
// migration input for the sharded layout.
const busLogName = "bus.olg"

// busShardDirName is the sharded publication log directory
// WithPersistence co-locates with the view snapshots when the System
// owns its bus: one append-only segment per publishing peer. A
// directory still holding bus.olg is migrated on open.
const busShardDirName = "bus.shards"

// journalFoldFraction bounds a view's journal against its base
// snapshot: a checkpoint appends its change record while the journal
// stays within 1/journalFoldFraction of the base's bytes, and folds
// into a new full snapshot past that. Recovery therefore replays at
// most an eighth of a base's worth of changes on top of it, and the
// amortised snapshot rewrite costs about one eighth of a byte per
// journal byte appended.
const journalFoldFraction = 8

// openPersistence wires a System to its state directory: it opens the
// statestore, substitutes a durable sharded bus when the caller
// did not supply one, and recovers every persisted view — restoring
// its base snapshot, applying its journal's change records and
// resuming the last one's bus cursor so the next Exchange replays only
// publications past the checkpoint.
func (s *System) openPersistence(cfg *config) error {
	st, err := statestore.Open(cfg.persist.dir)
	if err != nil {
		return err
	}
	// A state directory belongs to one confederation description: the
	// manifest records the spec fingerprint its checkpoints were taken
	// under, and recovery under a different spec is rejected up front
	// with a descriptive error instead of resurrecting stale instances.
	// (Evolution re-stamps the fingerprint and re-checkpoints; see
	// System.ApplyDiff.) An empty fingerprint means a fresh directory.
	fp := s.spec.Fingerprint()
	if stored := st.SpecFingerprint(); stored != "" && stored != fp {
		st.Close()
		return fmt.Errorf("orchestra: state directory %s was checkpointed under a different spec (fingerprint %s, running spec is %s); evolve the running system instead of editing the spec, or start from a fresh directory",
			cfg.persist.dir, stored, fp)
	} else if stored == "" {
		if err := st.SetSpecFingerprint(fp); err != nil {
			st.Close()
			return err
		}
	}
	if cfg.bus == nil {
		fb, err := logstore.OpenShardedBus(
			filepath.Join(cfg.persist.dir, busShardDirName),
			filepath.Join(cfg.persist.dir, busLogName))
		if err != nil {
			return err
		}
		cfg.bus = fb
		s.ownBus = fb
	}
	s.store = st
	s.persist = cfg.persist
	busLen := -1
	if s.ownBus != nil {
		h, err := s.ownBus.Horizon(context.Background())
		if err != nil {
			s.closePersistence()
			return err
		}
		busLen = h.Total()
	}
	for _, vs := range st.Views() {
		_, r, err := st.LoadView(vs.Owner)
		if err != nil {
			s.closePersistence()
			return err
		}
		v, err := core.RestoreView(s.spec, vs.Owner, s.opts, r)
		if err == nil {
			err = applyJournal(st, v)
		}
		if errors.Is(err, core.ErrSnapshotSpecMismatch) || (err == nil && vs.Cursor > 0 && vs.Position == "") {
			// Two kinds of snapshot cannot be resumed: one that a crash
			// between a spec evolution's per-view checkpoints left stamped
			// with an older fingerprint than the manifest's, and one
			// checkpointed before cursors recorded their shard breakdown,
			// which names no place on the bus to resume from. A snapshot is
			// only a cache of the publication history: discard it and let
			// the view rebuild from publication zero on first use.
			if err := st.Remove(vs.Owner); err != nil {
				s.closePersistence()
				return fmt.Errorf("orchestra: discarding stale snapshot of view %q: %w", vs.Owner, err)
			}
			continue
		}
		if err != nil {
			s.closePersistence()
			return fmt.Errorf("orchestra: recovering view %q: %w", vs.Owner, err)
		}
		if busLen >= 0 && vs.Cursor > busLen {
			s.closePersistence()
			return fmt.Errorf("orchestra: view %q persisted cursor %d exceeds durable bus length %d (mismatched or truncated state directory?)",
				vs.Owner, vs.Cursor, busLen)
		}
		cursor, err := core.ParseCursor(vs.Position)
		if err != nil {
			s.closePersistence()
			return fmt.Errorf("orchestra: view %q persisted position: %w", vs.Owner, err)
		}
		if cursor.Total() != vs.Cursor {
			s.closePersistence()
			return fmt.Errorf("orchestra: view %q persisted position %q disagrees with cursor %d",
				vs.Owner, vs.Position, vs.Cursor)
		}
		v.TrackChanges()
		s.setupView(vs.Owner, v)
		s.views[vs.Owner] = &viewHandle{view: v, cursor: cursor}
	}
	return nil
}

// applyJournal brings a view restored from its base snapshot to its
// last committed checkpoint by applying the journal's change records in
// order.
func applyJournal(st *statestore.Store, v *core.View) error {
	frames, err := st.LoadJournal(v.Owner())
	if err != nil {
		return err
	}
	for i, fr := range frames {
		if err := v.ApplyChanges(bytes.NewReader(fr.Record)); err != nil {
			return fmt.Errorf("journal frame %d: %w", i+1, err)
		}
	}
	return nil
}

func (s *System) closePersistence() {
	if s.ownBus != nil {
		s.ownBus.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
}

// Checkpoint durably snapshots every materialized view together with
// its bus cursor (via the statestore's atomic write protocol),
// regardless of the configured checkpoint policy. Each view is
// checkpointed under its own lock, so checkpoints never tear against
// concurrent exchanges; ctx cancels between views.
func (s *System) Checkpoint(ctx context.Context) error {
	if s.store == nil {
		return fmt.Errorf("orchestra: persistence not enabled (use WithPersistence)")
	}
	s.mu.RLock()
	owners := make([]string, 0, len(s.views))
	for owner := range s.views {
		owners = append(owners, owner)
	}
	s.mu.RUnlock()
	sort.Strings(owners)
	for _, owner := range owners {
		if err := ctx.Err(); err != nil {
			return err
		}
		h, err := s.handle(owner)
		if err != nil {
			return err
		}
		h.mu.Lock()
		err = s.checkpointLocked(ctx, owner, h)
		h.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpointLocked persists one view; the caller holds h.mu, so the
// checkpoint observes a quiescent view and the cursor written beside it
// is exactly the checkpoint's publication horizon. It appends the
// view's change record since its last checkpoint to the journal when it
// can — a base exists, the view tracked every change since, and the
// journal stays within its fold bound — and otherwise folds: a full
// snapshot starting a new base generation. A view that neither changed
// nor moved its cursor writes nothing.
func (s *System) checkpointLocked(ctx context.Context, owner string, h *viewHandle) error {
	if err := h.view.Repair(ctx); err != nil {
		return err
	}
	total, pos := h.cursor.Total(), h.cursor.String()
	if n, tracked := h.view.PendingChanges(); tracked {
		if tip, ok := s.store.View(owner); ok && n == 0 && tip.Cursor == total && tip.Position == pos {
			h.sinceCkpt = 0
			return nil
		}
		if base, journal, ok := s.store.JournalSize(owner); ok {
			var rec bytes.Buffer
			if err := h.view.WriteChanges(&rec); err != nil {
				return err
			}
			if journal+int64(rec.Len()) <= base/journalFoldFraction {
				if err := s.store.AppendView(owner, total, pos, rec.Bytes()); err != nil {
					return err
				}
				h.view.TrackChanges()
				h.sinceCkpt = 0
				return nil
			}
		}
	}
	if err := s.store.SaveView(owner, total, pos, h.view.Spec().Fingerprint(), h.view.WriteSnapshot); err != nil {
		return err
	}
	h.view.TrackChanges()
	h.sinceCkpt = 0
	return nil
}

// maybeCheckpointLocked applies the checkpoint policy after an
// exchange; the caller holds h.mu and has already advanced the cursor.
// It reports whether a checkpoint was actually attempted (so callers
// can attribute its wall clock). It runs under the exchange's ctx: a
// cancelled checkpoint is harmless (the atomic write protocol keeps
// the previous generation live), and the publications it would have
// covered stay pending for the next one.
func (s *System) maybeCheckpointLocked(ctx context.Context, owner string, h *viewHandle) (bool, error) {
	if s.store == nil || h.sinceCkpt == 0 {
		return false, nil
	}
	switch n := s.persist.everyN; {
	case n == checkpointManual:
		return false, nil
	case n <= 1 || h.sinceCkpt >= n:
		return true, s.checkpointLocked(ctx, owner, h)
	}
	return false, nil
}

// PersistedViews lists the checkpoints recorded in the System's state
// directory, sorted by owner. It reads only the manifest; it does not
// touch the views.
func (s *System) PersistedViews() ([]ViewState, error) {
	if s.store == nil {
		return nil, fmt.Errorf("orchestra: persistence not enabled (use WithPersistence)")
	}
	return s.store.Views(), nil
}

// BusHorizon returns the bus's current typed horizon: the sharded
// position after every publication it holds. Its Total is the
// publication count.
func (s *System) BusHorizon(ctx context.Context) (Cursor, error) {
	return s.bus.Horizon(ctx)
}

// StateDirView is one view's checkpoint as seen by InspectStateDir.
type StateDirView struct {
	Owner  string
	Cursor int
	// Position is the durable form of the view's typed bus cursor (""
	// in manifests written before sharded cursors).
	Position   string
	Generation uint64
	// Pending is the number of co-located bus publications past the
	// cursor (-1 when the directory has no bus log).
	Pending int
	// SnapshotTime and SnapshotBytes describe the snapshot file (zero
	// values when it is missing — a torn directory InspectStateDir
	// reports rather than repairs).
	SnapshotTime  time.Time
	SnapshotBytes int64
}

// StateDirInfo is InspectStateDir's read-only summary of a state
// directory.
type StateDirInfo struct {
	Dir             string
	SpecFingerprint string
	// BusLen counts publications in the co-located durable bus log; -1
	// when the directory has none (the System exchanged through an
	// external bus). BusName is the log it was read from: the
	// "bus.shards" directory, or "bus.olg" in a directory last opened
	// before the sharded layout.
	BusLen  int
	BusName string
	Views   []StateDirView
}

// InspectStateDir summarizes a state directory without opening it:
// the manifest's checkpoints, the co-located bus log's length, and
// each snapshot file's age and size. It takes no lock and mutates
// nothing, so it is safe to run against the state directory of a live
// System (`orchestra stats -state`): the statestore's atomic manifest
// rename means a concurrent checkpoint yields either the old or the
// new manifest, never a torn one.
func InspectStateDir(dir string) (StateDirInfo, error) {
	m, err := statestore.ReadManifest(dir)
	if err != nil {
		return StateDirInfo{}, err
	}
	info := StateDirInfo{Dir: dir, SpecFingerprint: m.Spec, BusLen: -1}
	// Prefer the sharded layout; fall back to the single file of a
	// directory that was never opened by a sharded-bus release.
	for _, name := range []string{busShardDirName, busLogName} {
		busPath := filepath.Join(dir, name)
		if _, err := os.Stat(busPath); err != nil {
			continue
		}
		n, err := logstore.ReadLen(busPath)
		if err != nil {
			return StateDirInfo{}, err
		}
		info.BusLen, info.BusName = n, name
		break
	}
	for _, vs := range m.Views {
		v := StateDirView{Owner: vs.Owner, Cursor: vs.Cursor, Position: vs.Position, Generation: vs.Generation, Pending: -1}
		if info.BusLen >= 0 {
			v.Pending = max(info.BusLen-vs.Cursor, 0)
		}
		if fi, err := os.Stat(filepath.Join(dir, vs.File)); err == nil {
			v.SnapshotTime = fi.ModTime()
			v.SnapshotBytes = fi.Size()
		}
		info.Views = append(info.Views, v)
	}
	return info, nil
}

// Close releases resources the System owns: the durable bus log opened
// by WithPersistence and the state directory's lock. It does not
// checkpoint; call Checkpoint first if the current state must be
// durable (policy-driven checkpoints have already run). Views stay
// queryable after Close, but publishing to a closed durable bus and
// checkpointing into a closed store fail.
func (s *System) Close() error {
	var first error
	if s.ownBus != nil {
		first = s.ownBus.Close()
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
