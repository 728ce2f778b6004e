package orchestra

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"orchestra/internal/core"
	"orchestra/internal/evolve"
	"orchestra/internal/spec"
	"orchestra/internal/tgd"
)

// Live confederation evolution: a running System's spec can be changed
// in place — peers joined, mappings added and removed, trust policies
// replaced — without tearing the System down and re-exchanging from
// publication zero. Each operation validates the evolved spec
// (well-formedness, ownership, weak acyclicity), recompiles every
// materialized view's mapping program, and incrementally repairs the
// materialized state:
//
//   - AddPeer only extends the schema; existing state is untouched.
//   - AddMapping runs a semi-naive round seeded with just the new
//     mapping's rules, so cost scales with its derivations.
//   - RemoveMapping and trust revocation are the paper's
//     provenance-driven deletion generalized from tuple deletions to
//     rule deletions: exactly the tuples whose every derivation uses a
//     removed (or newly untrusted) mapping are deleted.
//   - Base-level trust changes (peer distrust, base conditions) filter
//     tuples at import time and are therefore history-dependent — a
//     grant cannot resurrect tuples that were never imported, and a
//     revocation cannot reconstruct the rejections that deletion edits
//     would have left — so the affected peer's view is rebuilt by
//     replaying the publication history up to its cursor.
//
// Evolution is exclusive: it locks the whole System (no exchanges,
// queries, or checkpoints run concurrently) and, under WithPersistence,
// finishes by re-stamping the state directory's spec fingerprint and
// checkpointing every view, so a restart recovers under the evolved
// spec. The invariants of DESIGN.md hold throughout: view cursors never
// move (a fortiori never past the bus horizon), and SpecGeneration
// increases by one per applied operation.

// AddPeer registers a new peer and its relations on the running system.
// decl uses the spec-file syntax after the "peer" keyword, e.g.
//
//	sys.AddPeer(ctx, "PRef { relation C(nam int, cls int) }")
//
// The new relations start empty everywhere; the peer can immediately
// publish edits and other peers can be mapped onto it with AddMapping.
func (s *System) AddPeer(ctx context.Context, decl string) error {
	p, err := spec.ParsePeerDecl(decl)
	if err != nil {
		return err
	}
	return s.applyOps(ctx, []evolve.Op{{Kind: evolve.OpAddPeer, Peer: p}})
}

// AddMapping adds a schema mapping to the running system. decl uses the
// spec-file syntax after the "mapping" keyword, e.g.
//
//	sys.AddMapping(ctx, "m4: U(n,c) -> C(n,n)")
//
// The evolved mapping set is validated (well-formed, unique id, weakly
// acyclic) before anything changes. Every materialized view is repaired
// with a semi-naive round seeded with only the new mapping's rules, so
// existing instances flow through it exactly once.
func (s *System) AddMapping(ctx context.Context, decl string) error {
	m, err := tgd.Parse(decl)
	if err != nil {
		return err
	}
	if m.ID == "" {
		return fmt.Errorf("orchestra: mapping %q needs an id (\"mX: ...\")", decl)
	}
	return s.applyOps(ctx, []evolve.Op{{Kind: evolve.OpAddMapping, Mapping: m}})
}

// RemoveMapping removes the mapping with the given id from the running
// system. Every materialized view deletes exactly the tuples whose every
// derivation in the provenance graph uses the removed mapping (tuples
// with surviving alternative derivations stay).
func (s *System) RemoveMapping(ctx context.Context, id string) error {
	return s.applyOps(ctx, []evolve.Op{{Kind: evolve.OpRemoveMapping, MappingID: id}})
}

// SetTrust replaces a peer's entire trust policy on the running system
// (nil restores the default trust-everything Θ). Mapping-level
// conditions repair in place: derivations the new policy rejects are
// revoked via provenance-driven deletion, and derivations it newly
// accepts are re-derived from data still in the views. Changing the
// peer's base-level trust (peer distrust, base conditions) instead
// rebuilds that peer's view from the publication history — import-time
// filtering is history-dependent, so in-place repair cannot be exact.
func (s *System) SetTrust(ctx context.Context, peer string, pol *TrustPolicy) error {
	return s.applyOps(ctx, []evolve.Op{{Kind: evolve.OpSetTrust, TrustPeer: peer, Policy: pol}})
}

// ApplyDiff applies a whole spec-diff (see ParseSpecDiff and the
// orchestra CLI's evolve subcommand) as one exclusive evolution: the
// operations validate and repair in order, and persistence checkpoints
// once at the end.
func (s *System) ApplyDiff(ctx context.Context, d *SpecDiff) error {
	return s.applyOps(ctx, d.Ops)
}

// applyOps is the one evolution entry point: it locks the whole System,
// folds the operations over the spec — validating each intermediate
// spec and repairing every materialized view — and re-checkpoints the
// state directory under the new spec fingerprint.
func (s *System) applyOps(ctx context.Context, ops []evolve.Op) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Lock every materialized view for the whole evolution, in sorted
	// owner order; operations observe and repair a quiescent system.
	owners := make([]string, 0, len(s.views))
	for owner := range s.views {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	handles := make([]*viewHandle, len(owners))
	for i, owner := range owners {
		handles[i] = s.views[owner]
		handles[i].mu.Lock()
	}
	defer func() {
		for _, h := range handles {
			h.mu.Unlock()
		}
	}()

	for i, op := range ops {
		if err := s.applyOpLocked(ctx, op, owners); err != nil {
			return fmt.Errorf("orchestra: evolution op %d (%s): %w", i+1, op.Kind, err)
		}
	}

	// Re-stamp and re-checkpoint so a restart recovers under the evolved
	// spec; the old-spec snapshots would (correctly) be rejected.
	if s.store != nil {
		//orchestralint:ignore locksafe evolution is deliberately stop-the-world; the fingerprint must land before any lock-free reader sees the new spec
		if err := s.store.SetSpecFingerprint(s.spec.Fingerprint()); err != nil {
			return fmt.Errorf("orchestra: evolution applied but fingerprint update failed: %w", err)
		}
		for _, owner := range owners {
			h, ok := s.views[owner]
			if !ok {
				continue // view was dropped by a failed replay
			}
			if err := s.checkpointLocked(ctx, owner, h); err != nil {
				return fmt.Errorf("orchestra: evolution applied but checkpoint of view %q failed: %w", owner, err)
			}
		}
	}
	return nil
}

// applyOpLocked applies one operation under the System's exclusive lock.
// The new spec is installed before the views repair: a view whose repair
// fails is left dirty (it recovers by full recomputation from its base
// tables, which evolution never corrupts) or — when even that cannot
// reconstruct it, i.e. a failed history replay — dropped, to be rebuilt
// from publication zero on next use.
func (s *System) applyOpLocked(ctx context.Context, op evolve.Op, owners []string) error {
	newSpec, err := evolve.ApplyOp(s.spec, op)
	if err != nil {
		return err
	}
	oldSpec := s.spec
	s.spec = newSpec
	s.specGen++

	trustPeer := op.TrustPeer
	if op.Kind == evolve.OpTrustDirective {
		if f := strings.Fields(op.Directive); len(f) > 0 {
			trustPeer = f[0]
		}
	}

	var firstErr error
	for _, owner := range owners {
		h, ok := s.views[owner]
		if !ok {
			continue
		}
		var verr error
		switch op.Kind {
		case evolve.OpAddPeer:
			verr = h.view.Recompile(ctx, newSpec)
		case evolve.OpAddMapping:
			_, verr = h.view.AddMappings(ctx, newSpec, []string{op.Mapping.ID})
		case evolve.OpRemoveMapping:
			_, verr = h.view.RemoveMappings(ctx, newSpec, []string{op.MappingID}, core.DeleteProvenance)
		case evolve.OpSetTrust, evolve.OpTrustDirective:
			if owner == trustPeer && core.BaseTrustChanged(oldSpec, newSpec, trustPeer) {
				if verr = s.replayViewLocked(ctx, owner, h, newSpec); verr != nil {
					// The old view is unrecoverable in place (base-level
					// trust filters at import time, so its Rℓ/Rr no longer
					// reflect the history); drop it so the next use
					// rebuilds from publication zero.
					delete(s.views, owner)
					if s.store != nil {
						s.store.Remove(owner)
					}
				}
			} else {
				_, verr = h.view.ApplyTrust(ctx, newSpec, core.DeleteProvenance)
			}
		}
		if verr != nil && firstErr == nil {
			firstErr = fmt.Errorf("repairing view %q: %w", owner, verr)
		}
	}
	return firstErr
}

// replayViewLocked rebuilds one view from the publication history: a
// fresh view of newSpec replays exactly the publications the old view
// had applied ([0, cursor)), then replaces it. The cursor is unchanged,
// so pending publications stay pending.
func (s *System) replayViewLocked(ctx context.Context, owner string, h *viewHandle, newSpec *core.Spec) error {
	v, err := core.NewView(newSpec, owner, s.opts)
	if err != nil {
		return err
	}
	s.setupView(owner, v)
	deltas, _, err := s.bus.Fetch(ctx, core.Cursor{})
	if err != nil {
		return err
	}
	applied := h.cursor.Total()
	if len(deltas) < applied {
		return fmt.Errorf("orchestra: bus holds %d publications but view %q has applied %d; cannot replay", len(deltas), owner, applied)
	}
	for _, d := range deltas[:applied] {
		if _, err := v.ApplyEdits(ctx, d.Pub.Log, core.DeleteProvenance); err != nil {
			return err
		}
	}
	h.view = v
	return nil
}
