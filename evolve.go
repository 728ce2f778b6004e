package orchestra

import (
	"context"
	"fmt"
	"sort"

	"orchestra/internal/evolve"
	"orchestra/internal/spec"
	"orchestra/internal/tgd"
)

// Live confederation evolution: a running System's spec can be changed
// in place — peers joined, mappings added, removed or redefined, trust
// policies replaced — without tearing the System down and re-exchanging
// from publication zero. Every change, a single operation or a whole
// diff, is validated in full (well-formedness, ownership, weak
// acyclicity at every intermediate spec) before anything changes, and
// then each materialized view makes one repair from the old spec to the
// final one (core.View.Evolve): the paper's provenance-driven deletion,
// generalized from tuple deletions to rule deletions, removes exactly
// the tuples whose every derivation uses a removed or newly untrusted
// mapping or base tuple, and one semi-naive round seeded with the new
// and changed rules derives what the new spec newly produces. Base-level
// trust (peer distrust, base conditions) is a filter on the rule that
// feeds a relation's local contributions into its instance, and every
// view stores every contribution, so no evolution reads the bus.
//
// Evolution is exclusive: it locks the whole System (no exchanges,
// queries, or checkpoints run concurrently) and, under WithPersistence,
// finishes by re-stamping the state directory's spec fingerprint and
// checkpointing every view, so a restart recovers under the evolved
// spec. The invariants of DESIGN.md hold throughout: view cursors never
// move (a fortiori never past the bus horizon), a diff that fails
// validation changes nothing, and SpecGeneration increases by the number
// of operations of each applied diff.

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
// (nil restores the default trust-everything Θ). Every view repairs in
// place, for mapping-level and base-level trust alike: derivations the
// new policy rejects are revoked via provenance-driven deletion, and
// derivations it newly accepts are derived from data already in the
// views, without fetching from the bus.
func (s *System) SetTrust(ctx context.Context, peer string, pol *TrustPolicy) error {
	return s.applyOps(ctx, []evolve.Op{{Kind: evolve.OpSetTrust, TrustPeer: peer, Policy: pol}})
}

// ApplyDiff applies a whole spec-diff (see ParseSpecDiff and the
// orchestra CLI's evolve subcommand) as one exclusive evolution: every
// operation validates first, so a diff rejected at any operation changes
// nothing; then each view repairs once to the final spec, and
// persistence checkpoints once at the end.
func (s *System) ApplyDiff(ctx context.Context, d *SpecDiff) error {
	return s.applyOps(ctx, d.Ops)
}

// applyOps is the one evolution entry point: it locks the whole System,
// validates the whole diff, installs the final spec, repairs every
// materialized view once, and re-checkpoints the state directory under
// the new spec fingerprint. The new spec installs before the views
// repair: a view whose repair fails is left dirty and recovers by full
// recomputation from its base tables, which evolution never corrupts.
func (s *System) applyOps(ctx context.Context, ops []evolve.Op) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	newSpec, err := evolve.Apply(s.spec, &evolve.Diff{Ops: ops})
	if err != nil {
		return fmt.Errorf("orchestra: %w", err)
	}

	// Lock every materialized view for the whole evolution, in sorted
	// owner order; the repairs observe a quiescent system.
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

	s.spec = newSpec
	s.specGen += len(ops)
	var firstErr error
	for i, h := range handles {
		//orchestralint:ignore locksafe evolution is deliberately stop-the-world; no reader may see the new spec before every view is repaired to it
		if _, err := h.view.Evolve(ctx, newSpec); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("orchestra: repairing view %q: %w", owners[i], err)
		}
	}
	if firstErr != nil {
		return firstErr
	}

	// Re-stamp and re-checkpoint so a restart recovers under the evolved
	// spec; the old-spec snapshots would (correctly) be rejected.
	if s.store != nil {
		//orchestralint:ignore locksafe evolution is deliberately stop-the-world; the fingerprint must land before any lock-free reader sees the new spec
		if err := s.store.SetSpecFingerprint(s.spec.Fingerprint()); err != nil {
			return fmt.Errorf("orchestra: evolution applied but fingerprint update failed: %w", err)
		}
		for i, owner := range owners {
			if err := s.checkpointLocked(ctx, owner, handles[i]); err != nil {
				return fmt.Errorf("orchestra: evolution applied but checkpoint of view %q failed: %w", owner, err)
			}
		}
	}
	return nil
}
