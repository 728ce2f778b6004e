package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"orchestra/internal/engine"
	"orchestra/internal/provenance"
	"orchestra/internal/storage"
	"orchestra/internal/value"
)

// DeletionStrategy selects how deletions are propagated (§6.3's three
// contenders).
type DeletionStrategy uint8

const (
	// DeleteProvenance is the paper's incremental algorithm (Fig. 3):
	// goal-directed, provenance-driven.
	DeleteProvenance DeletionStrategy = iota
	// DeleteDRed is the Gupta–Mumick–Subrahmanian baseline: pessimistic
	// over-deletion followed by re-derivation.
	DeleteDRed
	// DeleteRecompute throws the derived state away and recomputes from
	// base tables.
	DeleteRecompute
)

func (s DeletionStrategy) String() string {
	switch s {
	case DeleteProvenance:
		return "provenance"
	case DeleteDRed:
		return "dred"
	default:
		return "recompute"
	}
}

// ApplyStats reports the work done by a maintenance operation.
type ApplyStats struct {
	// Base-change counts actually applied.
	InsL, DelL, InsR, DelR int
	// TuplesDeleted counts derived tuples removed.
	TuplesDeleted int
	// ProvRowsDeleted counts provenance rows removed.
	ProvRowsDeleted int
	// Checked counts tuples submitted to the derivability test; Rederived
	// counts the survivors.
	Checked, Rederived int
	// Engine accumulates fixpoint statistics from insertion propagation
	// and re-derivation.
	Engine engine.Stats

	// Exchange-pass accounting. Publications is the number of bus
	// publications this operation consumed; EditsIn the edit-log entries
	// entering NetEffect; EditsCancelled how many of them net-effect
	// coalescing discharged without propagation (insert+delete pairs and
	// already-satisfied edits).
	Publications   int
	EditsIn        int
	EditsCancelled int
	// Phase wall-clock nanoseconds: bus fetch, net-effect computation,
	// deletion propagation, insertion propagation.
	FetchNS, NetEffectNS, DeleteNS, InsertNS int64

	// Delivery accounting: FetchCalls counts bus fetch round trips this
	// operation issued; FetchPublications counts publication bodies
	// those fetches transferred; PushDeltas counts publications that
	// arrived pre-transferred over a subscription (ExchangeDeltas) and
	// therefore needed no fetch.
	FetchCalls        int
	FetchPublications int
	PushDeltas        int

	// TraceIDs are the lineage trace ids of the publications this
	// operation consumed (stamped by the exchange entry points; empty
	// for publications that predate tracing).
	TraceIDs []string
}

// Add accumulates other into s.
func (s *ApplyStats) Add(other ApplyStats) {
	s.InsL += other.InsL
	s.DelL += other.DelL
	s.InsR += other.InsR
	s.DelR += other.DelR
	s.TuplesDeleted += other.TuplesDeleted
	s.ProvRowsDeleted += other.ProvRowsDeleted
	s.Checked += other.Checked
	s.Rederived += other.Rederived
	s.Engine.Add(other.Engine)
	s.Publications += other.Publications
	s.EditsIn += other.EditsIn
	s.EditsCancelled += other.EditsCancelled
	s.FetchNS += other.FetchNS
	s.NetEffectNS += other.NetEffectNS
	s.DeleteNS += other.DeleteNS
	s.InsertNS += other.InsertNS
	s.FetchCalls += other.FetchCalls
	s.FetchPublications += other.FetchPublications
	s.PushDeltas += other.PushDeltas
	s.TraceIDs = append(s.TraceIDs, other.TraceIDs...)
}

// CancellationRatio is the fraction of incoming edits that net-effect
// coalescing discharged without propagation (0 when no edits came in).
func (s *ApplyStats) CancellationRatio() float64 {
	if s.EditsIn == 0 {
		return 0
	}
	return float64(s.EditsCancelled) / float64(s.EditsIn)
}

// FullRecompute discards all derived state (inputs, outputs, provenance)
// and recomputes it from the base tables — the non-incremental baseline
// of §6.3 — with cancellation plumbed into the fixpoint loop.
func (v *View) FullRecompute(ctx context.Context) (engine.Stats, error) {
	for _, rel := range v.spec.Universe.Relations() {
		v.db.Table(InputRel(rel.Name)).Clear()
		v.db.Table(OutputRel(rel.Name)).Clear()
	}
	for _, mi := range v.infos {
		v.db.Table(mi.ProvRel).Clear()
	}
	v.ev.InvalidateAllTransient()
	return v.ev.Run(ctx)
}

// ApplyEdits applies one peer-published edit log to the view: net effect
// over Rℓ/Rr, then deletion propagation with the chosen strategy, then
// insertion propagation, with cancellation plumbed through the
// propagation fixpoints. This is the per-exchange maintenance entry
// point.
func (v *View) ApplyEdits(ctx context.Context, log EditLog, strategy DeletionStrategy) (ApplyStats, error) {
	neStart := time.Now()
	dl, dr, err := NetEffect(log, v.db)
	neNS := time.Since(neStart).Nanoseconds()
	if err != nil {
		return ApplyStats{EditsIn: len(log), NetEffectNS: neNS}, err
	}
	stats, err := v.ApplyBase(ctx, dl, dr, strategy)
	stats.EditsIn += len(log)
	if cancelled := len(log) - dl.Size() - dr.Size(); cancelled > 0 {
		stats.EditsCancelled += cancelled
	}
	stats.NetEffectNS += neNS
	return stats, err
}

// ApplyBase applies base-table deltas: dl over local-contribution tables,
// dr over rejection tables (both keyed by *user* relation names).
// Deletion effects (local deletions, new rejections) propagate first,
// then insertion effects (new contributions, withdrawn rejections).
// Cancellation is plumbed through the propagation fixpoints; an
// interrupted operation leaves the view marked dirty, and the next
// maintenance operation (or query) first repairs it by recomputing
// derived state from the base tables, which commit before any
// cancellable point.
func (v *View) ApplyBase(ctx context.Context, dl, dr storage.DeltaSet, strategy DeletionStrategy) (ApplyStats, error) {
	var stats ApplyStats
	if err := v.repairIfDirty(ctx, &stats); err != nil {
		return stats, err
	}
	v.dirty = true

	delStart := time.Now()
	switch strategy {
	case DeleteRecompute:
		// Apply every base change, then rebuild. The whole rebuild counts
		// as the deletion phase: recompute has no separate insertion pass.
		v.applyBaseChanges(dl, dr, &stats)
		es, err := v.FullRecompute(ctx)
		stats.Engine.Add(es)
		stats.DeleteNS += time.Since(delStart).Nanoseconds()
		if err != nil {
			return stats, err
		}
		v.dirty = false
		return stats, nil
	case DeleteDRed:
		err := v.deleteDRed(ctx, dl, dr, &stats)
		stats.DeleteNS += time.Since(delStart).Nanoseconds()
		if err != nil {
			return stats, err
		}
	default:
		err := v.deleteProvenance(ctx, dl, dr, &stats)
		stats.DeleteNS += time.Since(delStart).Nanoseconds()
		if err != nil {
			return stats, err
		}
	}
	insStart := time.Now()
	err := v.insertIncremental(ctx, dl, dr, &stats)
	stats.InsertNS += time.Since(insStart).Nanoseconds()
	if err != nil {
		return stats, err
	}
	v.dirty = false
	return stats, nil
}

// Repair recomputes derived state from the base tables if a previous
// maintenance operation was interrupted mid-propagation; it is a no-op
// on a clean view. Read paths that bypass maintenance (snapshots,
// instance dumps, provenance rendering) call it so they never observe
// partially propagated state.
func (v *View) Repair(ctx context.Context) error {
	var stats ApplyStats
	return v.repairIfDirty(ctx, &stats)
}

// repairIfDirty recomputes derived state from the base tables when a
// previous maintenance operation was interrupted mid-propagation.
// Without this, retrying the interrupted edit log would be a silent
// no-op: its base changes are already committed, so NetEffect yields
// empty deltas and the lost propagation would never happen.
func (v *View) repairIfDirty(ctx context.Context, stats *ApplyStats) error {
	if !v.dirty {
		return nil
	}
	es, err := v.FullRecompute(ctx)
	stats.Engine.Add(es)
	if err != nil {
		return err
	}
	v.dirty = false
	return nil
}

// applyBaseChanges applies all four kinds of base change without any
// propagation (used by the recompute strategy).
func (v *View) applyBaseChanges(dl, dr storage.DeltaSet, stats *ApplyStats) {
	for rel, d := range dl {
		lt := v.db.Table(LocalRel(rel))
		for _, r := range d.DelRows() {
			if lt.DeleteRow(r) {
				stats.DelL++
			}
		}
		for _, r := range d.InsRows() {
			if lt.InsertRow(r) {
				stats.InsL++
			}
		}
	}
	for rel, d := range dr {
		rt := v.db.Table(RejectRel(rel))
		for _, r := range d.InsRows() {
			if rt.InsertRow(r) {
				stats.InsR++
			}
		}
		for _, r := range d.DelRows() {
			if rt.DeleteRow(r) {
				stats.DelR++
			}
		}
	}
}

// insertIncremental applies the insertion-side base changes (new local
// contributions from dl, withdrawn rejections from dr) and propagates
// them semi-naively with inline trust filtering (§4.2).
func (v *View) insertIncremental(ctx context.Context, dl, dr storage.DeltaSet, stats *ApplyStats) error {
	pending := make(map[string][]value.Row)
	for rel, d := range dl {
		lt := v.db.Table(LocalRel(rel))
		for _, r := range d.InsRows() {
			if lt.InsertRow(r) {
				stats.InsL++
				pending[LocalRel(rel)] = append(pending[LocalRel(rel)], r)
				v.ev.InvalidateTransient(LocalRel(rel))
			}
		}
	}
	for rel, d := range dr {
		rt := v.db.Table(RejectRel(rel))
		it := v.db.Table(InputRel(rel))
		for _, r := range d.DelRows() {
			if rt.DeleteRow(r) {
				stats.DelR++
				v.ev.InvalidateTransient(RejectRel(rel))
				// A withdrawn rejection revives the blocked input tuple:
				// re-feed it through rule (tR) by seeding the delta.
				if it.ContainsRow(r) {
					pending[InputRel(rel)] = append(pending[InputRel(rel)], r)
				}
			}
		}
	}
	if len(pending) == 0 {
		return nil
	}
	es, err := v.ev.PropagateRows(ctx, pending)
	stats.Engine.Add(es)
	return err
}

// ---------------------------------------------------------------------------
// Provenance-driven incremental deletion (the paper's Fig. 3).

// provHandle identifies one provenance row. The row is keyed, so deleting
// it and instantiating its templates never re-encode; stored rows are
// immutable, so handles share them without cloning.
type provHandle struct {
	mi  *provenance.MappingInfo
	row value.Row
}

// tupleNode is a tuple node of the provenance graph in flight: its ref
// together with the tuple the ref's key encodes. The cascade carries
// both, so no stage decodes a key that an earlier stage encoded.
type tupleNode struct {
	ref provenance.Ref
	t   value.Tuple
}

// deletionState is one provenance-driven deletion cascade in flight: the
// worklists and the suspects pending a derivability test. Nothing
// inserts while a cascade runs, so a tuple absent from its table is one
// already deleted; no separate set records them. Edit-driven deletion
// (deleteProvenance) seeds it from base changes; spec evolution
// (evolve.go) seeds it from whole removed mappings or newly-untrusted
// provenance rows — the same cascade and derivability loop repair the
// view either way.
type deletionState struct {
	v     *View
	stats *ApplyStats
	// work holds tuples deleted and pending their source-cascade; provDel
	// holds provenance rows pending deletion.
	work    []tupleNode
	provDel []provHandle
	// rchk holds the suspects pending the derivability test, with their
	// tuples.
	rchk map[provenance.Ref]value.Tuple
	// inst and scratch hold the target being instantiated and its Skolem
	// terms.
	inst    value.Tuple
	scratch provenance.Scratch
}

func (v *View) newDeletionState(stats *ApplyStats) *deletionState {
	v.cascades++
	return &deletionState{
		v:     v,
		stats: stats,
		rchk:  make(map[provenance.Ref]value.Tuple),
	}
}

// deleteTuple removes ref's tuple (if still present) and queues the
// source-cascade with the stored tuple.
func (d *deletionState) deleteTuple(ref provenance.Ref) {
	tbl := d.v.db.Table(ref.Rel)
	if tbl == nil {
		return
	}
	t, ok := tbl.DeleteKey(ref.Key)
	if !ok {
		return
	}
	d.v.ev.InvalidateTransient(ref.Rel)
	delete(d.rchk, ref)
	d.stats.TuplesDeleted++
	d.work = append(d.work, tupleNode{ref, t})
}

// suspect handles a tuple t of rel that just lost one derivation: tuples
// with no remaining provenance rows are deleted outright; the rest queue
// for the derivability test. t may be the caller's buffer: a queued
// suspect keeps a copy.
func (d *deletionState) suspect(rel string, t value.Tuple) {
	if tbl := d.v.db.Table(rel); tbl == nil || !tbl.Contains(t) {
		return
	}
	ref := provenance.NewRef(rel, t)
	if !d.v.hasSupport(rel, t) {
		d.deleteTuple(ref)
	} else {
		d.rchk[ref] = t.Clone()
	}
}

// cascade drains the two worklists: provenance-row deletions update
// target support; tuple deletions invalidate provenance rows that use
// them as sources. Each pass refills the slice the previous pass
// drained, so a long cascade reuses two backing arrays.
func (d *deletionState) cascade() {
	v := d.v
	for len(d.work) > 0 || len(d.provDel) > 0 {
		rows := d.provDel
		for _, h := range rows {
			pt := v.db.Table(h.mi.ProvRel)
			if pt == nil || !pt.DeleteRow(h.row) {
				continue
			}
			v.ev.InvalidateTransient(h.mi.ProvRel)
			d.stats.ProvRowsDeleted++
			for i := range h.mi.Targets {
				d.inst = h.mi.Targets[i].Instantiate(d.inst, h.row.Tuple, v.sk, &d.scratch)
				d.suspect(h.mi.Targets[i].Rel, d.inst)
			}
		}
		d.provDel = rows[:0]
		tuples := d.work
		for _, n := range tuples {
			d.provDel = v.rowsUsingSource(n, d.provDel)
		}
		d.work = tuples[:0]
	}
}

// run drives the cascade to completion, interleaving the derivability
// loop (Fig. 3 lines 10–18): surviving suspects are tested against the
// EDB; failures are garbage-collected (their remaining provenance rows
// are the non-well-founded cyclic ones) and the cascade continues.
func (d *deletionState) run(ctx context.Context) error {
	v := d.v
	d.cascade()
	for len(d.rchk) > 0 {
		var pending []tupleNode
		for ref, t := range d.rchk {
			if v.db.Table(ref.Rel).ContainsKey(ref.Key) {
				pending = append(pending, tupleNode{ref, t})
			}
		}
		d.rchk = make(map[provenance.Ref]value.Tuple)
		if len(pending) == 0 {
			break
		}
		d.stats.Checked += len(pending)
		alive, err := v.derivable(ctx, pending, d.stats)
		if err != nil {
			return err
		}
		changed := false
		for _, n := range pending {
			if alive[n.ref] {
				d.stats.Rederived++
				continue
			}
			// Not derivable from the EDB: remove the tuple and the cyclic
			// provenance rows still deriving it.
			d.provDel = v.rowsDeriving(n, d.provDel)
			d.deleteTuple(n.ref)
			changed = true
		}
		if !changed {
			break
		}
		d.cascade()
	}
	return nil
}

// deleteProvenance implements the PropagateDelete algorithm: delete
// provenance rows invalidated by base deletions; tuples that lose all
// provenance rows are deleted and cascade; tuples that keep some rows are
// tested for derivability from the EDB via the goal-directed derivation
// test (§4.1.3), and garbage-collected if the test fails (this is what
// collects derivation cycles no longer anchored in local contributions).
func (v *View) deleteProvenance(ctx context.Context, dl, dr storage.DeltaSet, stats *ApplyStats) error {
	ds := v.newDeletionState(stats)

	// Seed: local-contribution deletions…
	for rel, d := range dl {
		lt := v.db.Table(LocalRel(rel))
		for _, r := range d.DelRows() {
			if lt.DeleteRow(r) {
				stats.DelL++
				v.ev.InvalidateTransient(LocalRel(rel))
				ds.work = append(ds.work, tupleNode{provenance.RowRef(LocalRel(rel), r), r.Tuple})
			}
		}
	}
	// …and curation rejections, which invalidate the (tR) provenance row
	// of the rejected input tuple.
	for rel, d := range dr {
		rt := v.db.Table(RejectRel(rel))
		pIns := v.db.Table(provRelOf(insMapID(rel)))
		for _, r := range d.InsRows() {
			if rt.InsertRow(r) {
				stats.InsR++
				v.ev.InvalidateTransient(RejectRel(rel))
				if pIns.ContainsRow(r) {
					ds.provDel = append(ds.provDel, provHandle{mi: v.mappingInfo(insMapID(rel)), row: r})
				}
			}
		}
	}

	return ds.run(ctx)
}

// mappingInfo finds registered metadata by mapping id.
func (v *View) mappingInfo(id string) *provenance.MappingInfo {
	for _, mi := range v.infos {
		if mi.ID == id {
			return mi
		}
	}
	panic(fmt.Sprintf("core: unknown mapping %q", id))
}

// rowsUsingSource appends to out handles of live provenance rows with n
// among their sources, via an indexed probe on the provenance table.
func (v *View) rowsUsingSource(n tupleNode, out []provHandle) []provHandle {
	for _, ms := range v.bySourceRel[n.ref.Rel] {
		v.probeTemplate(ms.mi, &ms.mi.Sources[ms.idx], n.t, func(row value.Row) bool {
			out = append(out, provHandle{mi: ms.mi, row: row})
			return true
		})
	}
	return out
}

// rowsDeriving appends to out handles of live provenance rows with n
// among their targets.
func (v *View) rowsDeriving(n tupleNode, out []provHandle) []provHandle {
	for _, mt := range v.byTargetRel[n.ref.Rel] {
		v.probeTemplate(mt.mi, &mt.mi.Targets[mt.idx], n.t, func(row value.Row) bool {
			out = append(out, provHandle{mi: mt.mi, row: row})
			return true
		})
	}
	return out
}

// hasSupport reports whether any live provenance row still derives the
// tuple t of relation rel.
func (v *View) hasSupport(rel string, t value.Tuple) bool {
	found := false
	for _, mt := range v.byTargetRel[rel] {
		v.probeTemplate(mt.mi, &mt.mi.Targets[mt.idx], t, func(value.Row) bool {
			found = true
			return false
		})
		if found {
			return true
		}
	}
	return false
}

// probeTemplate finds provenance rows of mi whose template instantiation
// equals want (AtomTemplate.Matches: no row is instantiated), probing a
// secondary index on the first directly-copied column when possible.
// Matching rows are handed to fn keyed until fn returns false; fn must
// not retain the bucket slice beyond the call (rows themselves are
// immutable and safe to keep).
func (v *View) probeTemplate(mi *provenance.MappingInfo, tmpl *provenance.AtomTemplate, want value.Tuple, fn func(value.Row) bool) {
	pt := v.db.Table(mi.ProvRel)
	if pt.Len() == 0 {
		return
	}
	probeCol := -1
	var probeVal value.Value
	for i, a := range tmpl.Args {
		if a.Col >= 0 {
			probeCol = a.Col
			probeVal = want[i]
			break
		}
	}
	if probeCol >= 0 {
		pt.EnsureIndex(probeCol)
		rows, _ := pt.ProbeRows(probeCol, probeVal)
		for _, row := range rows {
			if tmpl.Matches(row.Tuple, want, v.sk) && !fn(row) {
				return
			}
		}
		return
	}
	pt.EachRow(func(row value.Row) bool {
		return !tmpl.Matches(row.Tuple, want, v.sk) || fn(row)
	})
}

// ---------------------------------------------------------------------------
// Derivability testing (§4.1.3).

// derivable runs the goal-directed derivation test: trace the provenance
// graph backward from the suspects to their supporting EDB tuples, then
// re-run the (trust-filtered) mapping program forward on a scratch
// database seeded with exactly that support, and report which suspects
// reappear.
func (v *View) derivable(ctx context.Context, nodes []tupleNode, stats *ApplyStats) (map[provenance.Ref]bool, error) {
	if err := v.ensureChk(); err != nil {
		return nil, err
	}
	// Reset the scratch database.
	for _, name := range v.chkDB.Names() {
		v.chkDB.Table(name).Clear()
	}
	v.chkEv.InvalidateAllTransient()

	// Backward: supporting base tuples (present local contributions),
	// found goal-directedly via indexed probes — this is the "majority of
	// its computation while only using the keys of tuples" property §6.3
	// credits for beating DRed.
	support := v.supportOf(nodes)
	for ref, t := range support {
		v.chkDB.Table(ref.Rel).InsertRow(value.KeyedRow(t, ref.Key))
	}
	// Rejections still apply during re-derivation.
	for _, rel := range v.spec.Universe.Relations() {
		src := v.db.Table(RejectRel(rel.Name))
		dst := v.chkDB.Table(RejectRel(rel.Name))
		src.EachRow(func(r value.Row) bool {
			dst.InsertRow(r)
			return true
		})
	}
	// Forward: fixpoint over the support.
	es, err := v.chkEv.Run(ctx)
	stats.Engine.Add(es)
	if err != nil {
		return nil, err
	}
	alive := make(map[provenance.Ref]bool, len(nodes))
	for _, n := range nodes {
		if tbl := v.chkDB.Table(n.ref.Rel); tbl != nil && tbl.ContainsKey(n.ref.Key) {
			alive[n.ref] = true
		}
	}
	return alive, nil
}

// Derivability reports whether a tuple of a user relation's instance is
// derivable from the current local contributions (§4.1.3's test, exposed
// for curation tooling), together with the supporting base tuples found
// by the backward pass. A tuple may be present yet non-derivable only
// transiently inside deletion propagation; after any maintenance
// operation completes, presence and derivability coincide.
func (v *View) Derivability(ctx context.Context, rel string, t value.Tuple) (bool, []provenance.Ref, error) {
	n := []tupleNode{{provenance.NewRef(OutputRel(rel), t), t}}
	var stats ApplyStats
	if err := v.repairIfDirty(ctx, &stats); err != nil {
		return false, nil, err
	}
	alive, err := v.derivable(ctx, n, &stats)
	if err != nil {
		return false, nil, err
	}
	support := v.supportOf(n)
	refs := make([]provenance.Ref, 0, len(support))
	for r := range support {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Rel != refs[j].Rel {
			return refs[i].Rel < refs[j].Rel
		}
		return refs[i].Key < refs[j].Key
	})
	return alive[n[0].ref], refs, nil
}

// supportOf walks the provenance graph backward from the targets to the
// base tuples supporting them, using indexed probes on the provenance
// tables (goal-directed, unlike provenance.Graph.Support which scans).
// It returns each supporting base tuple by ref.
func (v *View) supportOf(targets []tupleNode) map[provenance.Ref]value.Tuple {
	support := make(map[provenance.Ref]value.Tuple)
	visited := make(map[provenance.Ref]bool)
	stack := make([]tupleNode, 0, len(targets))
	for _, n := range targets {
		if !visited[n.ref] {
			visited[n.ref] = true
			stack = append(stack, n)
		}
	}
	var derivs []provHandle
	var inst value.Tuple
	var s provenance.Scratch
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.graph.IsBase(cur.ref) {
			if tbl := v.db.Table(cur.ref.Rel); tbl != nil && tbl.ContainsKey(cur.ref.Key) {
				support[cur.ref] = cur.t
			}
			continue
		}
		derivs = v.rowsDeriving(cur, derivs[:0])
		for _, h := range derivs {
			for i := range h.mi.Sources {
				src := &h.mi.Sources[i]
				inst = src.Instantiate(inst, h.row.Tuple, v.sk, &s)
				if ref := provenance.NewRef(src.Rel, inst); !visited[ref] {
					visited[ref] = true
					stack = append(stack, tupleNode{ref, inst.Clone()})
				}
			}
		}
	}
	return support
}

// ensureChk lazily builds the scratch database and evaluator used by
// derivability tests.
func (v *View) ensureChk() error {
	if v.chkEv != nil {
		return nil
	}
	v.chkDB = storage.NewDatabase()
	for _, name := range v.db.Names() {
		if _, err := v.chkDB.Create(name, v.db.Table(name).Arity()); err != nil {
			return err
		}
	}
	ev, err := engine.New(v.prog, v.chkDB, v.sk, engine.Options{
		Backend:     v.opts.Backend,
		Parallelism: v.opts.Parallelism,
	})
	if err != nil {
		return err
	}
	v.chkEv = ev
	return nil
}

// ---------------------------------------------------------------------------
// DRed baseline (§4.2, §6.3).

// dredState is one DRed over-deletion in flight: tuples reachable from
// the seeds are removed regardless of alternative derivations; a full
// re-run afterwards restores the survivors.
type dredState struct {
	v       *View
	stats   *ApplyStats
	work    []tupleNode
	provDel []provHandle
	inst    value.Tuple
	scratch provenance.Scratch
}

// overDelete removes ref's tuple pessimistically — even if other
// derivations exist; re-derivation restores it.
func (d *dredState) overDelete(ref provenance.Ref) {
	tbl := d.v.db.Table(ref.Rel)
	if tbl == nil {
		return
	}
	t, ok := tbl.DeleteKey(ref.Key)
	if !ok {
		return
	}
	d.stats.TuplesDeleted++
	d.work = append(d.work, tupleNode{ref, t})
}

// drain runs the over-deletion cascade to exhaustion, with the worklist
// reuse of deletionState.cascade.
func (d *dredState) drain() {
	v := d.v
	for len(d.work) > 0 || len(d.provDel) > 0 {
		rows := d.provDel
		for _, h := range rows {
			pt := v.db.Table(h.mi.ProvRel)
			if pt == nil || !pt.DeleteRow(h.row) {
				continue
			}
			d.stats.ProvRowsDeleted++
			for i := range h.mi.Targets {
				d.inst = h.mi.Targets[i].Instantiate(d.inst, h.row.Tuple, v.sk, &d.scratch)
				d.overDelete(provenance.NewRef(h.mi.Targets[i].Rel, d.inst))
			}
		}
		d.provDel = rows[:0]
		tuples := d.work
		for _, n := range tuples {
			d.provDel = v.rowsUsingSource(n, d.provDel)
		}
		d.work = tuples[:0]
	}
}

// deleteDRed propagates deletions pessimistically: every tuple
// transitively derivable from a deleted tuple is removed (regardless of
// alternative derivations), then the program is re-run to fixpoint to
// re-derive survivors — re-insertion being the expensive step the paper
// measures against.
func (v *View) deleteDRed(ctx context.Context, dl, dr storage.DeltaSet, stats *ApplyStats) error {
	ds := &dredState{v: v, stats: stats}

	for rel, d := range dl {
		lt := v.db.Table(LocalRel(rel))
		for _, r := range d.DelRows() {
			if lt.DeleteRow(r) {
				stats.DelL++
				ds.work = append(ds.work, tupleNode{provenance.RowRef(LocalRel(rel), r), r.Tuple})
			}
		}
	}
	for rel, d := range dr {
		rt := v.db.Table(RejectRel(rel))
		pIns := v.db.Table(provRelOf(insMapID(rel)))
		for _, r := range d.InsRows() {
			if rt.InsertRow(r) {
				stats.InsR++
				if pIns.ContainsRow(r) {
					ds.provDel = append(ds.provDel, provHandle{mi: v.mappingInfo(insMapID(rel)), row: r})
				}
			}
		}
	}

	ds.drain()

	// Re-derivation: full fixpoint from the surviving state.
	v.ev.InvalidateAllTransient()
	es, err := v.ev.Run(ctx)
	stats.Engine.Add(es)
	stats.Rederived += es.Derived
	return err
}
