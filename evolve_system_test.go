package orchestra

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"orchestra/internal/engine"
	"orchestra/internal/evolve"
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

// fetchCountingBus wraps a bus and counts Fetch calls.
type fetchCountingBus struct {
	PublicationBus
	fetches atomic.Int64
}

func (b *fetchCountingBus) Fetch(ctx context.Context, from Cursor) ([]Delta, Cursor, error) {
	b.fetches.Add(1)
	return b.PublicationBus.Fetch(ctx, from)
}

// TestSystemEvolutionBaseTrustReplay checks that a base-level trust
// change replays nothing: granting and revoking trust in a peer repair
// the views in place from the contributions they already store, issue
// no bus Fetch, and end equal to a fresh System over the same bus.
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
	bus := &fetchCountingBus{PublicationBus: NewMemoryBus()}
	sys, err := New(f.Spec, WithTrustFor("PBioSQL", pol), WithBus(bus))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(ctx, "PGUS", EditLog{Ins("G", MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	for _, owner := range []string{"PBioSQL", ""} {
		if _, err := sys.Exchange(ctx, owner); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := sys.Instance("PBioSQL", "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("distrusted peer's data imported: %v", rows)
	}

	matchesFresh := func(label string) {
		t.Helper()
		fresh, err := New(sys.Spec(), WithBus(sys.Bus()))
		if err != nil {
			t.Fatal(err)
		}
		for _, owner := range []string{"PBioSQL", ""} {
			if _, err := fresh.Exchange(ctx, owner); err != nil {
				t.Fatal(err)
			}
		}
		assertStatesEqual(t, label, captureState(t, sys), captureState(t, fresh))
	}
	setTrust := func(label string, pol *TrustPolicy, wantRows int) {
		t.Helper()
		before := bus.fetches.Load()
		if err := sys.SetTrust(ctx, "PBioSQL", pol); err != nil {
			t.Fatal(err)
		}
		if n := bus.fetches.Load() - before; n != 0 {
			t.Fatalf("%s: SetTrust issued %d bus fetches, want 0", label, n)
		}
		rows, err := sys.Instance("PBioSQL", "B")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != wantRows {
			t.Fatalf("%s: PBioSQL's B = %v, want %d rows", label, rows, wantRows)
		}
		matchesFresh(label)
	}
	// Grant: PGUS becomes trusted and B(1,3) appears even though the
	// publication was consumed long ago.
	setTrust("grant", nil, 1)
	// Revoke: distrusting PGUS again removes it.
	setTrust("revoke", pol, 0)
	// Pending publications stayed pending (cursors never move).
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
	// Evolution operations collect over a shadow spec, each validated
	// the way ApplyDiff will validate it (a rejected candidate is
	// skipped), and reach the System as one multi-op diff: flushed before
	// every non-evolution step, at random, and before the settle.
	shadow := sys.Spec()
	var pending []SpecOp
	queue := func(op SpecOp) bool {
		next, err := evolve.ApplyOp(shadow, op)
		if err != nil && strings.Contains(err.Error(), "weakly acyclic") {
			return false // candidate rejected by validation
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		shadow = next
		pending = append(pending, op)
		return true
	}
	flush := func() {
		if len(pending) == 0 {
			return
		}
		gen := sys.SpecGeneration()
		if err := sys.ApplyDiff(ctx, &SpecDiff{Ops: pending}); err != nil {
			t.Fatalf("ApplyDiff(%q): %v", RenderSpecDiff(&SpecDiff{Ops: pending}), err)
		}
		if got := sys.SpecGeneration(); got != gen+len(pending) {
			t.Fatalf("spec generation %d after a %d-op diff from %d", got, len(pending), gen)
		}
		pending = nil
	}
	peerNames := func() []string {
		var out []string
		for _, p := range shadow.Universe.Peers() {
			out = append(out, p.Name)
		}
		return out
	}

	addPeer := func() {
		nextID++
		rel := fmt.Sprintf("Z%d", nextID)
		queue(mustParseDiffOp(t, fmt.Sprintf("add peer PZ%d { relation %s(a int, b int) }", nextID, rel)))
		addedRels = append(addedRels, rel)
	}
	// addMappingAs queues a random mapping between two peers' relations
	// under the given id, reporting whether validation accepted it.
	addMappingAs := func(id string) bool {
		rels := shadow.Universe.Relations()
		src := rels[rng.Intn(len(rels))]
		dst := rels[rng.Intn(len(rels))]
		if src.Peer == dst.Peer {
			return false
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
		decl := fmt.Sprintf("add mapping %s: %s(%s) -> ", id, src.Name, strings.Join(srcVars, ","))
		if len(exist) > 0 {
			decl += "exists " + strings.Join(exist, ",") + " . "
		}
		decl += fmt.Sprintf("%s(%s)", dst.Name, strings.Join(dstArgs, ","))
		return queue(mustParseDiffOp(t, decl))
	}
	addMapping := func() {
		nextID++
		addMappingAs(fmt.Sprintf("x%d", nextID))
	}
	removeMapping := func() {
		ms := shadow.Mappings
		if len(ms) <= 1 {
			return
		}
		id := ms[rng.Intn(len(ms))].ID
		queue(SpecOp{Kind: evolve.OpRemoveMapping, MappingID: id})
		if rng.Intn(2) == 0 {
			addMappingAs(id) // a new body under the same id
		}
	}
	setTrust := func() {
		peers := peerNames()
		peer := peers[rng.Intn(len(peers))]
		switch rng.Intn(4) {
		case 0: // clear
			queue(SpecOp{Kind: evolve.OpSetTrust, TrustPeer: peer})
		case 1: // mapping-level condition
			ms := shadow.Mappings
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
			queue(SpecOp{Kind: evolve.OpSetTrust, TrustPeer: peer, Policy: pol})
		case 2: // base-level peer distrust
			other := peers[rng.Intn(len(peers))]
			if other == peer {
				return
			}
			pol := NewTrustPolicy(peer)
			pol.DistrustPeer(other)
			queue(SpecOp{Kind: evolve.OpSetTrust, TrustPeer: peer, Policy: pol})
		default: // base condition on another peer's relation
			var rels []string
			for _, r := range shadow.Universe.Relations() {
				if r.Peer != peer {
					rels = append(rels, r.Name)
				}
			}
			if len(rels) == 0 {
				return
			}
			rel := shadow.Universe.Relation(rels[rng.Intn(len(rels))])
			col := rel.Cols[rng.Intn(len(rel.Cols))].Name
			var k int64
			switch col {
			case "key": // workload keys count up from 1
				k = rng.Int63n(16)
			case "a", "b": // publishAdded's value range
				k = rng.Int63n(50)
			default: // hashed attribute values
				k = rng.Int63()
			}
			pred, err := ParseTrustPred(fmt.Sprintf("%s >= %d", col, k))
			if err != nil {
				t.Fatal(err)
			}
			pol := NewTrustPolicy(peer)
			pol.DistrustBase(rel.Name, pred)
			queue(SpecOp{Kind: evolve.OpSetTrust, TrustPeer: peer, Policy: pol})
		}
	}

	steps := 14
	for i := 0; i < steps; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			flush()
			publish()
		case 2:
			flush()
			publishAdded()
		case 3, 4:
			flush()
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
		if rng.Intn(3) == 0 {
			flush()
		}
	}
	flush()

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
	assertNullBijectionByOwner(t, sys, fresh)
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

// TestFailedDiffChangesNothing checks that a diff rejected at any
// operation is rejected whole: an earlier valid operation of the same
// diff must not repair the views, bump the generation, or re-stamp the
// state directory.
func TestFailedDiffChangesNothing(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	specText := `
peer PGUS { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
mapping m1: G(i,c,n) -> B(i,n)
`
	open := func() *System {
		t.Helper()
		f, err := ParseSpecString(specText)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(f.Spec, WithPersistence(dir))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	instanceB := func(sys *System) []Tuple {
		t.Helper()
		rows, err := sys.Instance("", "B")
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	sys := open()
	if err := sys.Publish(ctx, "PGUS", EditLog{Ins("G", MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	before := instanceB(sys)
	if len(before) != 1 {
		t.Fatalf("B = %v, want m1's derivation", before)
	}

	d, err := ParseSpecDiffString("remove mapping m1\nremove mapping nope\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ApplyDiff(ctx, d); err == nil {
		t.Fatal("diff removing an unknown mapping applied")
	}
	if gen := sys.SpecGeneration(); gen != 0 {
		t.Errorf("failed diff bumped the spec generation to %d", gen)
	}
	if after := instanceB(sys); len(after) != len(before) {
		t.Errorf("failed diff changed B: %v, want %v", after, before)
	}
	// A checkpoint stamps every view with the System's current spec.
	if err := sys.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// The state directory still belongs to the original spec.
	reopened := open()
	defer reopened.Close()
	if got := instanceB(reopened); len(got) != len(before) {
		t.Errorf("reopened B = %v, want %v", got, before)
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

// TestRecoveryRebuildsPreTrustFilterSnapshot checks that recovery
// discards an "ORV2" view snapshot: one taken while Rℓ held only the
// tuples the owner trusted, which a later trust grant could not repair.
// The view rebuilds from the publication history and then equals a
// fresh System, before and after granting trust.
func TestRecoveryRebuildsPreTrustFilterSnapshot(t *testing.T) {
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
	pol := NewTrustPolicy("PBioSQL")
	pol.DistrustPeer("PGUS")
	sys, err := New(f.Spec, WithTrustFor("PBioSQL", pol), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(ctx, "PGUS", EditLog{Ins("G", MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, "PBioSQL"); err != nil {
		t.Fatal(err)
	}
	specNow := sys.Spec()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-save PBioSQL's snapshot under the previous format's magic.
	st, err := statestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	vs, r, err := st.LoadView("PBioSQL")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:4]) != "ORV3" {
		t.Fatalf("snapshot magic %q, want ORV3", raw[:4])
	}
	copy(raw, "ORV2")
	if err := st.SaveView("PBioSQL", vs.Cursor, vs.Position, specNow.Fingerprint(), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := New(specNow, WithPersistence(dir))
	if err != nil {
		t.Fatalf("recovery refused the ORV2 snapshot instead of discarding it: %v", err)
	}
	defer sys2.Close()
	if views, _ := sys2.PersistedViews(); len(views) != 0 {
		t.Fatalf("ORV2 checkpoint survived: %+v", views)
	}
	if n, err := sys2.Pending(ctx, "PBioSQL"); err != nil || n != 1 {
		t.Fatalf("pending after reopen = %d, %v; want a rebuild from publication zero", n, err)
	}
	matchesFresh := func(label string) {
		t.Helper()
		if _, err := sys2.Exchange(ctx, "PBioSQL"); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(sys2.Spec(), WithBus(sys2.Bus()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Exchange(ctx, "PBioSQL"); err != nil {
			t.Fatal(err)
		}
		got, want := captureState(t, sys2)["PBioSQL"], captureState(t, fresh)["PBioSQL"]
		assertStatesEqual(t, label, systemState{"PBioSQL": got}, systemState{"PBioSQL": want})
	}
	matchesFresh("rebuilt")
	if err := sys2.SetTrust(ctx, "PBioSQL", nil); err != nil {
		t.Fatal(err)
	}
	matchesFresh("granted")
	rows, err := sys2.Instance("PBioSQL", "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("grant after rebuild: PBioSQL's B = %v, want m1's derivation", rows)
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
