package orchestra

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"

	"orchestra/internal/engine"
)

// testBackends are the engine backends the facade property suites run
// on: §5's two physical designs. Deployments always run the indexed one;
// the suites select the hash one through withBackend.
var testBackends = []engine.Backend{engine.BackendIndexed, engine.BackendHash}

// withBackend selects the physical engine backend. It lives here, not
// among the public options: only the property suites choose a backend.
func withBackend(be engine.Backend) Option {
	return func(c *config) { c.opts.Backend = be }
}

// withSerialExchange reverts exchange passes to the reference
// one-apply-per-publication replay — the oracle the exchange equivalence
// property compares coalesced passes against. Like
// withLegacyQueryPlanner, it is private to the tests.
func withSerialExchange() Option {
	return func(c *config) { c.serialExchange = true }
}

// exchangeWorkload builds a small confederation and a deterministic
// publication history with insert/delete churn: rounds of per-peer
// publications where later rounds delete entries inserted by earlier
// ones, so coalescing has insert+delete pairs to cancel and the serial
// replay pays real deletion cascades.
func exchangeWorkload(t *testing.T, seed int64) (*Workload, []Publication) {
	t.Helper()
	w, err := NewWorkload(WorkloadConfig{
		Peers:    4,
		Topology: TopologyChain,
		AttrMode: AttrsShared,
		Dataset:  DatasetInteger,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 7711))
	var pubs []Publication
	for round := 0; round < 6; round++ {
		for _, peer := range w.PeerNames() {
			log := w.GenInsertions(peer, 1+rng.Intn(3))
			if round > 1 && rng.Intn(2) == 0 {
				log = append(log, w.GenDeletions(peer, 1)...)
			}
			if len(log) == 0 {
				continue
			}
			pubs = append(pubs, Publication{Peer: peer, Log: log})
		}
	}
	return w, pubs
}

// publishAll pushes a shared publication history into a system's bus.
func publishAll(t *testing.T, sys *System, pubs []Publication) {
	t.Helper()
	ctx := context.Background()
	for _, p := range pubs {
		if err := sys.Publish(ctx, p.Peer, p.Log); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExchangeEquivalence is the exchange equivalence property: for
// random workloads, parallel+coalesced exchange ends observationally
// identical — instances, rejections, provenance derivations, and a
// consistent labeled-null bijection — to the reference serial
// per-publication replay over the same publication history, regardless
// of how the two systems' intermediate exchanges interleave with the
// publications. Runs on both backends; raise ORCHESTRA_EXCHANGE_SEEDS
// for a deeper sweep (the nightly CI job does).
func TestExchangeEquivalence(t *testing.T) {
	seeds := 3
	if s := os.Getenv("ORCHESTRA_EXCHANGE_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad ORCHESTRA_EXCHANGE_SEEDS %q", s)
		}
		seeds = n
	}
	for _, be := range testBackends {
		t.Run(be.String(), func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runExchangeEquivalence(t, be, int64(seed))
				})
			}
		})
	}
}

func runExchangeEquivalence(t *testing.T, be engine.Backend, seed int64) {
	ctx := context.Background()
	w, pubs := exchangeWorkload(t, seed)

	ref, err := New(w.Spec, withBackend(be),
		withSerialExchange(), WithExchangeParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(w.Spec, withBackend(be), WithExchangeParallelism(4))
	if err != nil {
		t.Fatal(err)
	}

	// Interleave publications with partial exchanges — deliberately
	// different interleavings per system, so the coalesced runs
	// [cursor, horizon) the parallel system sees differ from the
	// reference's per-publication steps. The final state must not care.
	rng := rand.New(rand.NewSource(seed * 31))
	for _, p := range pubs {
		for _, sys := range []*System{ref, par} {
			if err := sys.Publish(ctx, p.Peer, p.Log); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(3) == 0 {
			owner := w.PeerNames()[rng.Intn(len(w.PeerNames()))]
			if _, err := ref.Exchange(ctx, owner); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(3) == 0 {
			if _, err := par.ExchangeAll(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Materialize the global views too, then fully catch both systems up.
	if _, err := ref.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := par.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ExchangeAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := par.ExchangeAll(ctx); err != nil {
		t.Fatal(err)
	}

	assertStatesEqual(t, "parallel+coalesced vs serial replay",
		captureState(t, par), captureState(t, ref))
	assertNullBijectionByOwner(t, par, ref)
}

// assertNullBijectionByOwner checks labeled-null consistency per owner
// view: within each view the two systems' null ids must relate by one
// consistent bijection across every relation. Unlike the evolution
// test's assertNullBijection (one global map — valid there because
// every view imports the identical stream identically), the map resets
// per owner: each view has its own Skolem interner, and trust-filtered
// views intern in their own order, so id mappings are only meaningful
// view-locally.
func assertNullBijectionByOwner(t *testing.T, a, b *System) {
	t.Helper()
	owners := append(a.Peers(), "")
	for _, owner := range owners {
		fwd := make(map[int64]int64)
		rev := make(map[int64]int64)
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
					t.Fatalf("owner %q rel %q: row %s missing from reference system", owner, rel, d)
				}
				for i := range ta {
					if !ta[i].IsNull() {
						continue
					}
					ai, bi := ta[i].NullID(), tb[i].NullID()
					if prev, ok := fwd[ai]; ok && prev != bi {
						t.Fatalf("owner %q: null id %d maps to both %d and %d", owner, ai, prev, bi)
					}
					if prev, ok := rev[bi]; ok && prev != ai {
						t.Fatalf("owner %q: null id %d mapped from both %d and %d", owner, bi, prev, ai)
					}
					fwd[ai], rev[bi] = bi, ai
				}
			}
		}
	}
}

// TestExchangeEquivalenceBaseTrust pins the trust/coalescing
// interaction the generic equivalence workload cannot reach (it runs
// without trust policies): a base-distrusted tuple inserted in one
// publication and deleted in a later one. The insert is vetoed at
// import, so the later delete is a curation rejection — NetEffect's
// membership simulation is trust-aware precisely so the coalesced pass
// reaches the same rejection instead of cancelling the pair, and so
// the outcome does not depend on how the edits were batched into
// publications.
func TestExchangeEquivalenceBaseTrust(t *testing.T) {
	const cdss = `
peer PGUS {
  relation G(id int, can int, nam int)
}
peer PBioSQL { relation B(id int, nam int) }
peer PuBio   { relation U(nam int, can int) }

mapping m1: G(i,c,n) -> B(i,n)
mapping m3: B(i,n) -> exists c . U(n,c)

trust PBioSQL distrusts base G when id >= 3
`
	parsed, err := ParseSpecString(cdss)
	if err != nil {
		t.Fatal(err)
	}
	pubs := []Publication{
		{Peer: "PGUS", Log: EditLog{Ins("G", MakeTuple(1, 2, 3))}},
		// Distrusted by PBioSQL (id >= 3): the insert is vetoed there,
		// so the cross-publication delete must become a rejection in
		// PBioSQL's view while cancelling cleanly everywhere else.
		{Peer: "PGUS", Log: EditLog{Ins("G", MakeTuple(5, 1, 1))}},
		{Peer: "PBioSQL", Log: EditLog{Ins("B", MakeTuple(7, 8))}},
		{Peer: "PGUS", Log: EditLog{Del("G", MakeTuple(5, 1, 1))}},
		// Same-publication churn of another distrusted tuple.
		{Peer: "PGUS", Log: EditLog{Ins("G", MakeTuple(6, 1, 1)), Del("G", MakeTuple(6, 1, 1))}},
	}
	for _, be := range testBackends {
		ref, err := New(parsed.Spec, withBackend(be),
			withSerialExchange(), WithExchangeParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(parsed.Spec, withBackend(be), WithExchangeParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, sys := range []*System{ref, par} {
			publishAll(t, sys, pubs)
			if _, err := sys.Exchange(ctx, ""); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.ExchangeAll(ctx); err != nil {
				t.Fatal(err)
			}
		}
		assertStatesEqual(t, "base-trust parallel+coalesced vs serial replay",
			captureState(t, par), captureState(t, ref))
		assertNullBijectionByOwner(t, par, ref)
		// The vetoed-then-deleted tuples must be standing rejections in
		// PBioSQL's view (they were never contributions there) on both
		// systems — not silently cancelled.
		for _, sys := range []*System{ref, par} {
			rej, err := sys.Rejections("PBioSQL", "G")
			if err != nil {
				t.Fatal(err)
			}
			if len(rej) != 2 {
				t.Fatalf("PBioSQL rejections of G = %v, want the two distrusted deletes", rej)
			}
		}
	}
}

// TestExchangeAllDeterminism is the scheduler determinism property:
// ExchangeAll over the same publication history produces byte-identical
// view snapshots (instances, provenance tables, interned labeled nulls
// and all) at exchange parallelism 1, 4, and GOMAXPROCS, on both
// backends. Unlike the equivalence test's bijection, this is exact
// equality: scheduling must not leak into any view's state, because
// every view's pass reads only the shared (immutable-prefix) bus and
// writes only view-owned state.
func TestExchangeAllDeterminism(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, be := range testBackends {
		t.Run(be.String(), func(t *testing.T) {
			var want map[string][32]byte
			for _, par := range []int{1, 4, gmp} {
				w, pubs := exchangeWorkload(t, 99)
				sys, err := New(w.Spec, withBackend(be), WithExchangeParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				publishAll(t, sys, pubs)
				// Materialize the global view so ExchangeAll covers it.
				if _, err := sys.Exchange(context.Background(), ""); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.ExchangeAll(context.Background()); err != nil {
					t.Fatal(err)
				}
				got := snapshotDigests(t, sys)
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("parallelism %d: %d views, want %d", par, len(got), len(want))
				}
				for owner, sum := range got {
					if sum != want[owner] {
						t.Errorf("parallelism %d: view %q snapshot differs from parallelism 1", par, owner)
					}
				}
			}
		})
	}
}

// snapshotDigests captures every materialized view's full snapshot
// encoding (white-box: the same bytes a persistence checkpoint writes).
func snapshotDigests(t *testing.T, sys *System) map[string][32]byte {
	t.Helper()
	out := make(map[string][32]byte)
	sys.mu.RLock()
	owners := make([]string, 0, len(sys.views))
	for owner := range sys.views {
		owners = append(owners, owner)
	}
	sys.mu.RUnlock()
	for _, owner := range owners {
		h, err := sys.handle(owner)
		if err != nil {
			t.Fatal(err)
		}
		h.mu.Lock()
		var buf bytes.Buffer
		err = h.view.WriteSnapshot(&buf)
		h.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		out[owner] = sha256.Sum256(buf.Bytes())
	}
	return out
}
