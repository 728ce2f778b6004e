package orchestra

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"orchestra/internal/engine"
	"orchestra/internal/provenance"
	"orchestra/internal/statestore"
)

// TestSystemEvolutionWalkthrough exercises every facade evolution verb
// on the paper's running example and checks the repaired instances.
func TestSystemEvolutionWalkthrough(t *testing.T) {
	ctx := context.Background()
	f, err := ParseSpecString(`
peer PGUS { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
peer PuBio { relation U(nam int, can int) }
mapping m1: G(i,c,n) -> B(i,n)
mapping m2: G(i,c,n) -> U(n,c)
mapping m3: B(i,n) -> exists c . U(n,c)
edit PGUS + G(1,2,3)
edit PGUS + G(3,5,2)
edit PBioSQL + B(3,5)
`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(f.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.PublishFileEdits(ctx, f); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if gen := sys.SpecGeneration(); gen != 0 {
		t.Fatalf("fresh system at spec generation %d", gen)
	}

	// Join a new peer and map onto it; its instance fills without any
	// re-exchange.
	if err := sys.AddPeer(ctx, "PRef { relation C(nam int, cls int) }"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMapping(ctx, "m4: U(n,c) -> C(n,n)"); err != nil {
		t.Fatal(err)
	}
	cRows, err := sys.Instance("", "C")
	if err != nil {
		t.Fatal(err)
	}
	uRows, err := sys.Instance("", "U")
	if err != nil {
		t.Fatal(err)
	}
	if len(cRows) == 0 || len(cRows) != len(uniqueFirstCols(uRows)) {
		t.Fatalf("AddMapping repair wrong: C has %d rows, U first-cols %d", len(cRows), len(uniqueFirstCols(uRows)))
	}
	if gen := sys.SpecGeneration(); gen != 2 {
		t.Fatalf("spec generation %d after two ops", gen)
	}

	// The new peer can publish immediately.
	if err := sys.Publish(ctx, "PRef", EditLog{Ins("C", MakeTuple(9, 9))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}

	// Removing m4 deletes exactly its derivations: C keeps only PRef's
	// own contribution.
	if err := sys.RemoveMapping(ctx, "m4"); err != nil {
		t.Fatal(err)
	}
	cRows, err = sys.Instance("", "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(cRows) != 1 {
		t.Fatalf("after removing m4, C = %v, want only the local (9,9)", cRows)
	}

	// Trust revocation deletes the revoked derivations from the peer's
	// view.
	pol := NewTrustPolicy("PBioSQL")
	pred, err := ParseTrustPred("n >= 3")
	if err != nil {
		t.Fatal(err)
	}
	pol.DistrustMapping("m1", pred)
	if _, err := sys.Exchange(ctx, "PBioSQL"); err != nil {
		t.Fatal(err)
	}
	before, err := sys.Instance("PBioSQL", "B")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetTrust(ctx, "PBioSQL", pol); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Instance("PBioSQL", "B")
	if err != nil {
		t.Fatal(err)
	}
	// m1 derived B(1,3) (n=3, revoked) and B(3,2) (n=2, kept); B(3,5) is
	// base.
	if len(after) != len(before)-1 {
		t.Fatalf("revocation: B went from %v to %v, want exactly one tuple gone", before, after)
	}
	// And granting trust back restores it (mapping-level, no replay).
	if err := sys.SetTrust(ctx, "PBioSQL", nil); err != nil {
		t.Fatal(err)
	}
	restored, err := sys.Instance("PBioSQL", "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(before) {
		t.Fatalf("grant: B = %v, want %v", restored, before)
	}

	// Unknown ids and invalid declarations are rejected without touching
	// the spec.
	gen := sys.SpecGeneration()
	if err := sys.RemoveMapping(ctx, "nope"); err == nil {
		t.Fatal("removing unknown mapping succeeded")
	}
	if err := sys.AddMapping(ctx, "m1: G(i,c,n) -> B(i,n)"); err == nil {
		t.Fatal("duplicate mapping id accepted")
	}
	if sys.SpecGeneration() != gen {
		t.Fatal("failed operations bumped the spec generation")
	}
}

func uniqueFirstCols(rows []Tuple) map[Value]bool {
	out := make(map[Value]bool)
	for _, r := range rows {
		out[r[0]] = true
	}
	return out
}

// TestSystemEvolutionBaseTrustReplay exercises the replay fallback:
// loosening base-level trust rebuilds the peer's view from the
// publication history, resurrecting tuples that were never imported.
func TestSystemEvolutionBaseTrustReplay(t *testing.T) {
	ctx := context.Background()
	f, err := ParseSpecString(`
peer PGUS { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
mapping m1: G(i,c,n) -> B(i,n)
`)
	if err != nil {
		t.Fatal(err)
	}
	pol := NewTrustPolicy("PBioSQL")
	pol.DistrustPeer("PGUS")
	sys, err := New(f.Spec, WithTrustFor("PBioSQL", pol))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(ctx, "PGUS", EditLog{Ins("G", MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, "PBioSQL"); err != nil {
		t.Fatal(err)
	}
	rows, err := sys.Instance("PBioSQL", "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("distrusted peer's data imported: %v", rows)
	}
	// Loosen: PGUS becomes trusted; the view replays and B(1,3) appears
	// even though the publication was consumed long ago.
	if err := sys.SetTrust(ctx, "PBioSQL", nil); err != nil {
		t.Fatal(err)
	}
	rows, err = sys.Instance("PBioSQL", "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("replay did not resurrect the newly trusted derivation: %v", rows)
	}
	// Pending publications stayed pending (cursor unchanged by replay).
	if n, err := sys.Pending(ctx, "PBioSQL"); err != nil || n != 0 {
		t.Fatalf("pending = %d, %v", n, err)
	}
}

// ---------------------------------------------------------------------------
// Equivalence property test.

// systemState is the observable state of one system, rendered with
// structural labeled nulls so differently-evolved but isomorphic systems
// compare equal: per owner, sorted instance/rejection rows per relation
// and the sorted provenance derivations.
type systemState map[string]map[string][]string

// captureState renders instances, rejections, and the provenance graph
// of every owner view (all peers plus the global view).
func captureState(t *testing.T, sys *System) systemState {
	t.Helper()
	out := make(systemState)
	owners := append(sys.Peers(), "")
	for _, owner := range owners {
		st := make(map[string][]string)
		for _, rel := range sys.RelationNames() {
			inst, err := sys.DescribeInstance(owner, rel)
			if err != nil {
				t.Fatal(err)
			}
			st["inst:"+rel] = inst
			rej, err := sys.Rejections(owner, rel)
			if err != nil {
				t.Fatal(err)
			}
			descs := make([]string, len(rej))
			for i, r := range rej {
				if descs[i], err = sys.Describe(owner, r); err != nil {
					t.Fatal(err)
				}
			}
			sort.Strings(descs)
			st["rej:"+rel] = descs
		}
		g, err := sys.ProvenanceGraph(owner)
		if err != nil {
			t.Fatal(err)
		}
		var derivs []string
		g.AllDerivations(func(d provenance.Derivation) bool {
			var parts []string
			render := func(refs []ProvRef) string {
				ss := make([]string, len(refs))
				for i, ref := range refs {
					desc, err := sys.Describe(owner, ref.Tuple())
					if err != nil {
						t.Fatal(err)
					}
					ss[i] = ref.Rel + desc
				}
				return strings.Join(ss, ",")
			}
			parts = append(parts, d.Mapping.ID, render(d.Sources), render(d.Targets))
			derivs = append(derivs, strings.Join(parts, "|"))
			return true
		})
		sort.Strings(derivs)
		st["prov"] = derivs
		out[owner] = st
	}
	return out
}

// assertNullBijection checks that the labeled-null ids of two systems
// relate by one consistent bijection across every instance of every
// owner view — ids are history-dependent (an evolved system interned
// nulls for since-removed mappings), but a well-repaired system uses its
// ids consistently everywhere.
func assertNullBijection(t *testing.T, a, b *System) {
	t.Helper()
	fwd := make(map[int64]int64)
	rev := make(map[int64]int64)
	owners := append(a.Peers(), "")
	for _, owner := range owners {
		for _, rel := range a.RelationNames() {
			ra, err := a.Instance(owner, rel)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Instance(owner, rel)
			if err != nil {
				t.Fatal(err)
			}
			if len(ra) != len(rb) {
				t.Fatalf("owner %q rel %q: %d vs %d rows", owner, rel, len(ra), len(rb))
			}
			byDesc := func(sys *System, rows []Tuple) map[string]Tuple {
				m := make(map[string]Tuple, len(rows))
				for _, r := range rows {
					d, err := sys.Describe(owner, r)
					if err != nil {
						t.Fatal(err)
					}
					m[d] = r
				}
				return m
			}
			ma, mb := byDesc(a, ra), byDesc(b, rb)
			for d, ta := range ma {
				tb, ok := mb[d]
				if !ok {
					t.Fatalf("owner %q rel %q: row %s missing from fresh system", owner, rel, d)
				}
				for i := range ta {
					if !ta[i].IsNull() {
						continue
					}
					ai, bi := ta[i].NullID(), tb[i].NullID()
					if prev, ok := fwd[ai]; ok && prev != bi {
						t.Fatalf("null id %d maps to both %d and %d", ai, prev, bi)
					}
					if prev, ok := rev[bi]; ok && prev != ai {
						t.Fatalf("null id %d mapped from both %d and %d", bi, prev, ai)
					}
					fwd[ai], rev[bi] = bi, ai
				}
			}
		}
	}
}

func assertStatesEqual(t *testing.T, label string, got, want systemState) {
	t.Helper()
	for owner, wantTables := range want {
		gotTables := got[owner]
		for key, wantRows := range wantTables {
			gotRows := gotTables[key]
			if strings.Join(gotRows, ";") != strings.Join(wantRows, ";") {
				t.Errorf("%s: owner %q %s differs\n evolved: %v\n fresh:   %v", label, owner, key, gotRows, wantRows)
			}
		}
	}
}

// TestEvolveEquivalence is the equivalence property: for random
// workloads, any interleaving of publications, exchanges, and evolution
// operations (AddPeer / AddMapping / RemoveMapping / SetTrust) ends
// observationally identical — instances, rejections, provenance
// derivations (structural nulls), and a consistent labeled-null
// bijection — to a fresh System built from the final spec over the same
// publication history. Runs on both engine backends with the default
// parallelism; CI's race job and the nightly-style job (with
// ORCHESTRA_EVOLVE_SEEDS raised) extend the coverage.
func TestEvolveEquivalence(t *testing.T) {
	seeds := 3
	if s := os.Getenv("ORCHESTRA_EVOLVE_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad ORCHESTRA_EVOLVE_SEEDS %q", s)
		}
		seeds = n
	}
	for _, be := range testBackends {
		t.Run(be.String(), func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runEvolveScenario(t, be, int64(seed))
				})
			}
		})
	}
}

func runEvolveScenario(t *testing.T, be engine.Backend, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	w, err := NewWorkload(WorkloadConfig{
		Peers:    3,
		Topology: TopologyChain,
		AttrMode: AttrsShared,
		Dataset:  DatasetInteger,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(w.Spec, withBackend(be))
	if err != nil {
		t.Fatal(err)
	}

	nextID := 0
	var addedRels []string // relations of peers added during the run

	publish := func() {
		peers := w.PeerNames()
		peer := peers[rng.Intn(len(peers))]
		log := w.GenInsertions(peer, 1+rng.Intn(3))
		if rng.Intn(3) == 0 {
			log = append(log, w.GenDeletions(peer, 1)...)
		}
		if len(log) == 0 {
			return
		}
		if err := sys.Publish(ctx, peer, log); err != nil {
			t.Fatal(err)
		}
	}
	publishAdded := func() {
		if len(addedRels) == 0 {
			return
		}
		rel := addedRels[rng.Intn(len(addedRels))]
		peer := sys.Spec().PeerOf(rel)
		log := EditLog{Ins(rel, MakeTuple(rng.Intn(50), rng.Intn(50)))}
		if err := sys.Publish(ctx, peer, log); err != nil {
			t.Fatal(err)
		}
	}
	exchangeSome := func() {
		for _, p := range sys.Peers() {
			if rng.Intn(2) == 0 {
				if _, err := sys.Exchange(ctx, p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(2) == 0 {
			if _, err := sys.Exchange(ctx, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	addPeer := func() {
		nextID++
		rel := fmt.Sprintf("Z%d", nextID)
		decl := fmt.Sprintf("PZ%d { relation %s(a int, b int) }", nextID, rel)
		if err := sys.AddPeer(ctx, decl); err != nil {
			t.Fatal(err)
		}
		addedRels = append(addedRels, rel)
	}
	addMapping := func() {
		u := sys.Spec().Universe
		rels := u.Relations()
		src := rels[rng.Intn(len(rels))]
		dst := rels[rng.Intn(len(rels))]
		if src.Peer == dst.Peer {
			return
		}
		srcVars := make([]string, src.Arity())
		for i := range srcVars {
			srcVars[i] = fmt.Sprintf("v%d", i)
		}
		dstArgs := make([]string, dst.Arity())
		var exist []string
		for i := range dstArgs {
			if i < len(srcVars) {
				dstArgs[i] = srcVars[i]
			} else {
				dstArgs[i] = fmt.Sprintf("e%d", i)
				exist = append(exist, dstArgs[i])
			}
		}
		nextID++
		decl := fmt.Sprintf("x%d: %s(%s) -> ", nextID, src.Name, strings.Join(srcVars, ","))
		if len(exist) > 0 {
			decl += "exists " + strings.Join(exist, ",") + " . "
		}
		decl += fmt.Sprintf("%s(%s)", dst.Name, strings.Join(dstArgs, ","))
		err := sys.AddMapping(ctx, decl)
		if err != nil && strings.Contains(err.Error(), "weakly acyclic") {
			return // candidate rejected by validation; spec unchanged
		}
		if err != nil {
			t.Fatalf("AddMapping(%q): %v", decl, err)
		}
	}
	removeMapping := func() {
		ms := sys.Spec().Mappings
		if len(ms) <= 1 {
			return
		}
		if err := sys.RemoveMapping(ctx, ms[rng.Intn(len(ms))].ID); err != nil {
			t.Fatal(err)
		}
	}
	setTrust := func() {
		peers := sys.Peers()
		peer := peers[rng.Intn(len(peers))]
		switch rng.Intn(3) {
		case 0: // clear (may trigger the replay path)
			if err := sys.SetTrust(ctx, peer, nil); err != nil {
				t.Fatal(err)
			}
		case 1: // mapping-level condition
			ms := sys.Spec().Mappings
			if len(ms) == 0 {
				return
			}
			m := ms[rng.Intn(len(ms))]
			vars := m.LHSVars()
			if len(vars) == 0 {
				return
			}
			pred, err := ParseTrustPred(fmt.Sprintf("%s >= %d", vars[rng.Intn(len(vars))], rng.Intn(1000)))
			if err != nil {
				t.Fatal(err)
			}
			pol := NewTrustPolicy(peer)
			pol.DistrustMapping(m.ID, pred)
			if err := sys.SetTrust(ctx, peer, pol); err != nil {
				t.Fatal(err)
			}
		default: // base-level peer distrust (tightening)
			other := peers[rng.Intn(len(peers))]
			if other == peer {
				return
			}
			pol := NewTrustPolicy(peer)
			pol.DistrustPeer(other)
			if err := sys.SetTrust(ctx, peer, pol); err != nil {
				t.Fatal(err)
			}
		}
	}

	steps := 14
	for i := 0; i < steps; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			publish()
		case 2:
			publishAdded()
		case 3, 4:
			exchangeSome()
		case 5:
			addMapping()
		case 6:
			if rng.Intn(2) == 0 {
				removeMapping()
			} else {
				addPeer()
			}
		default:
			setTrust()
		}
	}

	// Settle: everyone catches up under the final spec.
	for _, p := range sys.Peers() {
		if _, err := sys.Exchange(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}

	// The oracle: a fresh System over the final spec and the same
	// publication history.
	fresh, err := New(sys.Spec(), withBackend(be), WithBus(sys.Bus()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fresh.Peers() {
		if _, err := fresh.Exchange(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fresh.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}

	assertStatesEqual(t, fmt.Sprintf("seed %d", seed), captureState(t, sys), captureState(t, fresh))
	assertNullBijection(t, sys, fresh)
}

// ---------------------------------------------------------------------------
// Spec fingerprints: snapshots and state directories reject stale specs.

func TestRestoreSnapshotSpecMismatch(t *testing.T) {
	ctx := context.Background()
	f, err := ParseSpecString(`
peer PGUS { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
mapping m1: G(i,c,n) -> B(i,n)
edit PGUS + G(1,2,3)
`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(f.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.PublishFileEdits(ctx, f); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := sys.WriteSnapshot("", &buf); err != nil {
		t.Fatal(err)
	}

	// Same spec restores fine.
	if err := sys.RestoreSnapshot("", strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	// An evolved system rejects the stale snapshot with a descriptive
	// error.
	if err := sys.AddMapping(ctx, "m2: G(i,c,n) -> exists z . B(i,z)"); err != nil {
		t.Fatal(err)
	}
	err = sys.RestoreSnapshot("", strings.NewReader(buf.String()))
	if err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("stale snapshot accepted: %v", err)
	}
}

func TestPersistenceSpecFingerprint(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	specText := `
peer PGUS { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
mapping m1: G(i,c,n) -> B(i,n)
`
	f, err := ParseSpecString(specText)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(f.Spec, WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(ctx, "PGUS", EditLog{Ins("G", MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	// Evolve the running system; persistence re-stamps and
	// re-checkpoints.
	if err := sys.AddMapping(ctx, "m2: G(i,c,n) -> exists z . B(n,z)"); err != nil {
		t.Fatal(err)
	}
	evolved := sys.Spec()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening under the stale (original) spec is rejected loudly.
	f2, err := ParseSpecString(specText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(f2.Spec, WithPersistence(dir)); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("stale-spec recovery not rejected: %v", err)
	}
	// Ensure the failed open released its locks.
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}

	// Reopening under the evolved spec recovers the checkpointed view.
	sys2, err := New(evolved, WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	views, err := sys2.PersistedViews()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].Cursor != 1 {
		t.Fatalf("recovered views = %+v", views)
	}
	rows, err := sys2.Instance("", "B")
	if err != nil {
		t.Fatal(err)
	}
	// m1 derived B(1,3); m2 derived B(3,null).
	if len(rows) != 2 {
		t.Fatalf("recovered instance B = %v, want 2 rows", rows)
	}
}

// TestEvolutionCrashSelfHeals simulates a crash between a spec
// evolution's manifest re-stamp and its per-view checkpoints: the
// manifest names the evolved spec while a view's snapshot still embeds
// the old one. Recovery must discard the stale snapshot (a snapshot is
// only a cache of the publication history) and rebuild that view from
// publication zero instead of wedging the directory.
func TestEvolutionCrashSelfHeals(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f, err := ParseSpecString(`
peer PGUS { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
mapping m1: G(i,c,n) -> B(i,n)
`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(f.Spec, WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(ctx, "PGUS", EditLog{Ins("G", MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Evolve the spec offline and stamp only the manifest, leaving the
	// old-spec snapshot in place — the post-crash state.
	evolved, err := EvolveSpec(f.Spec, &SpecDiff{Ops: []SpecOp{mustParseDiffOp(t, "add mapping m2: G(i,c,n) -> exists z . B(n,z)")}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := statestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetSpecFingerprint(evolved.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := New(evolved, WithPersistence(dir))
	if err != nil {
		t.Fatalf("recovery wedged on the stale snapshot: %v", err)
	}
	defer sys2.Close()
	// The stale checkpoint was discarded…
	views, err := sys2.PersistedViews()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 0 {
		t.Fatalf("stale checkpoint survived: %+v", views)
	}
	// …and the view rebuilds from the publication history under the
	// evolved spec.
	if _, err := sys2.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	rows, err := sys2.Instance("", "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rebuilt instance B = %v, want m1's and m2's derivations", rows)
	}
}

func mustParseDiffOp(t *testing.T, line string) SpecOp {
	t.Helper()
	d, err := ParseSpecDiffString(line)
	if err != nil || len(d.Ops) != 1 {
		t.Fatalf("bad diff line %q: %v", line, err)
	}
	return d.Ops[0]
}
