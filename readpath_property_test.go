package orchestra

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"orchestra/internal/engine"
)

// planQueries generates a deterministic query mix over a workload's
// schema: full scans, point probes with constants sampled from the live
// instances, shared-attribute joins (spelled big-first so only a
// cost-based plan reorders them), and where-filtered variants. Variable
// names are seeded per query so α-renaming gets exercised too.
func planQueries(t *testing.T, sys *System, owner string, w *Workload, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 131))
	rels := w.Spec.Universe.Relations()
	varName := func(q, i int) string { return fmt.Sprintf("v%d_%d", q%3, i) }
	var queries []string
	qi := 0
	for _, r := range rels {
		rows, err := sys.Instance(owner, r.Name)
		if err != nil {
			t.Fatal(err)
		}
		n := len(r.Cols)
		vars := make([]string, n)
		for i := range vars {
			vars[i] = varName(qi, i)
		}
		// Full scan.
		queries = append(queries, fmt.Sprintf("q%d(%s) :- %s(%s)",
			qi, strings.Join(vars, ","), r.Name, strings.Join(vars, ",")))
		qi++
		if len(rows) > 0 {
			// Point probe on the key column; constant from a live row so the
			// answer is non-empty, plus a where filter sometimes.
			row := rows[rng.Intn(len(rows))]
			if !row[0].IsNull() {
				args := append([]string{fmt.Sprintf("%d", row[0].AsInt())}, vars[1:]...)
				q := fmt.Sprintf("q%d(%s) :- %s(%s)", qi, strings.Join(vars[1:], ","), r.Name, strings.Join(args, ","))
				if rng.Intn(2) == 0 && n > 1 {
					q += fmt.Sprintf(" where %s >= 0", vars[1])
				}
				queries = append(queries, q)
				qi++
			}
		}
	}
	// Joins over shared non-key attributes, larger relation first.
	for i := 0; i+1 < len(rels); i++ {
		a, b := rels[i], rels[i+1]
		shared, pa, pb := "", -1, -1
		for ai := 1; ai < len(a.Cols) && shared == ""; ai++ {
			for bi := 1; bi < len(b.Cols); bi++ {
				if a.Cols[ai].Name == b.Cols[bi].Name {
					shared, pa, pb = a.Cols[ai].Name, ai, bi
					break
				}
			}
		}
		if shared == "" {
			continue
		}
		arg := func(prefix string, n, at int) string {
			parts := make([]string, n)
			for k := range parts {
				if k == at {
					parts[k] = "s"
				} else {
					parts[k] = fmt.Sprintf("%s%d_%d", prefix, qi, k)
				}
			}
			return strings.Join(parts, ",")
		}
		queries = append(queries, fmt.Sprintf("q%d(s) :- %s(%s), %s(%s)",
			qi, a.Name, arg("a", len(a.Cols), pa), b.Name, arg("b", len(b.Cols), pb)))
		qi++
	}
	return queries
}

// planIdent matches an identifier, with the '(' that follows it when it
// names an atom.
var planIdent = regexp.MustCompile(`[A-Za-z_]\w*\(?`)

// alphaRename respells a planQueries query with every variable renamed:
// head and relation names (identifiers that open an atom) and the where
// clause's "and" stay as they are.
func alphaRename(q string) string {
	return planIdent.ReplaceAllStringFunc(q, func(id string) string {
		if strings.HasSuffix(id, "(") || strings.EqualFold(id, "and") || id == "where" {
			return id
		}
		return "r_" + id
	})
}

// describeAll renders a result set order-independently.
func describeAll(t *testing.T, sys *System, owner string, rows []Tuple) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		d, err := sys.Describe(owner, r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	sort.Strings(out)
	return out
}

// TestPlanEquivalence is the read-path plan equivalence property: for
// random workloads, every query answered by the optimized read path —
// cost-based join ordering, declared secondary indexes, and the result
// cache (each query runs twice, so the second answer is served from
// cache) — is identical to the legacy fixed-order uncached planner's
// answer, on both backends, before and after interleaved writes. Raise
// ORCHESTRA_PLAN_SEEDS for a deeper sweep (the nightly CI job does).
func TestPlanEquivalence(t *testing.T) {
	seeds := 3
	if s := os.Getenv("ORCHESTRA_PLAN_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad ORCHESTRA_PLAN_SEEDS %q", s)
		}
		seeds = n
	}
	for _, be := range testBackends {
		t.Run(be.String(), func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runPlanEquivalence(t, be, int64(seed))
				})
			}
		})
	}
}

func TestSecondaryIndexServesQueryPlan(t *testing.T) {
	// On the hash backend a probe only shows "persistent index" when a
	// declared index exists — transient builds otherwise — so the explain
	// output proves the declaration took effect.
	parsed, err := ParseSpecString(`
peer PGUS    { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
mapping m1: G(i,c,n) -> B(i,n)
edit PGUS    + G(1,2,3)
edit PGUS    + G(3,5,2)
edit PBioSQL + B(3,5)
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sys, err := New(parsed.Spec, withBackend(engine.BackendHash), WithSecondaryIndex("", "B", "id"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.PublishFileEdits(ctx, parsed); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	plan, err := sys.ExplainQuery(ctx, "", "ans(i,n) :- G(i,c,m), B(i,n)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "persistent index") {
		t.Fatalf("declared index not used by the plan:\n%s", plan)
	}
	if !strings.Contains(plan, "cost-based") {
		t.Fatalf("query plan not cost-based:\n%s", plan)
	}
	rows, err := sys.Query(ctx, "", "ans(i,n) :- B(i,n)", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("indexed view answered nothing")
	}
}

// withLegacyQueryPlanner reverts read-path queries to the fixed greedy
// join order maintenance plans use — the reference the plan-equivalence
// property compares the cost-based planner against. It lives here, not
// among the public options: nothing outside this oracle wants it.
func withLegacyQueryPlanner() Option {
	return func(c *config) { c.opts.LegacyQueryPlanner = true }
}

func runPlanEquivalence(t *testing.T, be engine.Backend, seed int64) {
	ctx := context.Background()
	w, err := NewWorkload(WorkloadConfig{
		Peers:    4,
		Topology: TopologyComplete,
		AttrMode: AttrsShared,
		Dataset:  DatasetInteger,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	refOpts := []Option{withBackend(be), withLegacyQueryPlanner(), WithQueryCache(0)}
	optOpts := []Option{withBackend(be)}
	for _, r := range w.Spec.Universe.Relations() {
		optOpts = append(optOpts, WithSecondaryIndex("", r.Name, r.Cols[0].Name))
	}
	ref, err := New(w.Spec, refOpts...)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(w.Spec, optOpts...)
	if err != nil {
		t.Fatal(err)
	}

	apply := func(pubs []Publication) {
		for _, sys := range []*System{ref, opt} {
			publishAll(t, sys, pubs)
			if _, err := sys.Exchange(ctx, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	seedPubs := func(n int) []Publication {
		var pubs []Publication
		for _, peer := range w.PeerNames() {
			pubs = append(pubs, Publication{Peer: peer, Log: w.GenInsertions(peer, n)})
		}
		return pubs
	}

	apply(seedPubs(8))
	for round := 0; round < 3; round++ {
		queries := planQueries(t, ref, "", w, seed+int64(round))
		if len(queries) < 4 {
			t.Fatalf("workload generated only %d queries", len(queries))
		}
		if round == 0 {
			// The two systems really are on different planners; otherwise
			// the property compares a planner with itself.
			for sys, want := range map[*System]string{ref: "fixed order", opt: "cost-based"} {
				plan, err := sys.ExplainQuery(ctx, "", queries[0])
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, want) {
					t.Fatalf("plan of %q is not %s:\n%s", queries[0], want, plan)
				}
			}
		}
		for _, q := range queries {
			for _, nulls := range []bool{false, true} {
				want, err := ref.Query(ctx, "", q, nulls)
				if err != nil {
					t.Fatalf("ref %q: %v", q, err)
				}
				// Three times on the optimized system: the second answer comes
				// from the result cache by query text, and the third, under an
				// α-renamed spelling, by canonical key (a filtered query's
				// renamed spelling is an entry of its own). Neither may differ.
				for pass, text := range []string{q, q, alphaRename(q)} {
					got, err := opt.Query(ctx, "", text, nulls)
					if err != nil {
						t.Fatalf("opt %q (pass %d): %v", text, pass, err)
					}
					wd, gd := describeAll(t, ref, "", want), describeAll(t, opt, "", got)
					if len(wd) != len(gd) {
						t.Fatalf("%q nulls=%v pass %d: %d rows, want %d", text, nulls, pass, len(gd), len(wd))
					}
					for i := range wd {
						if wd[i] != gd[i] {
							t.Fatalf("%q nulls=%v pass %d: row %d differs:\n  opt %s\n  ref %s", text, nulls, pass, i, gd[i], wd[i])
						}
					}
				}
			}
		}
		// Interleave writes (with some deletions) and re-derive: cached
		// entries over touched relations must be invalidated, not served.
		var pubs []Publication
		for _, peer := range w.PeerNames() {
			log := w.GenInsertions(peer, 2)
			log = append(log, w.GenDeletions(peer, 1)...)
			pubs = append(pubs, Publication{Peer: peer, Log: log})
		}
		apply(pubs)
	}
	hits, _, _, err := opt.QueryCacheStats("")
	if err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("optimized system never served from cache — the property did not exercise the cache path")
	}
}

// TestQueryCacheConcurrentServing is the -race smoke for the serving
// path: concurrent readers over the facade (which serializes per-view
// operations) interleaved with a writer publishing and exchanging.
// Every answer must reflect a consistent view state; the writer's
// inserts must become visible, never torn.
func TestQueryCacheConcurrentServing(t *testing.T) {
	ctx := context.Background()
	w, err := NewWorkload(WorkloadConfig{
		Peers:    3,
		Topology: TopologyChain,
		AttrMode: AttrsShared,
		Dataset:  DatasetInteger,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(w.Spec)
	if err != nil {
		t.Fatal(err)
	}
	publishAll(t, sys, []Publication{{Peer: w.PeerNames()[0], Log: w.GenInsertions(w.PeerNames()[0], 4)}})
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	rel := w.Spec.Universe.Relations()[0]
	vars := make([]string, len(rel.Cols))
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	q := fmt.Sprintf("ans(%s) :- %s(%s)", strings.Join(vars, ","), rel.Name, strings.Join(vars, ","))

	const readers, iters = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for i := 0; i < iters; i++ {
				rows, err := sys.Query(ctx, "", q, true)
				if err != nil {
					errs <- err
					return
				}
				// The writer only inserts, so a correctly invalidated cache
				// can never shrink the answer.
				if len(rows) < last {
					errs <- fmt.Errorf("answer shrank from %d to %d rows", last, len(rows))
					return
				}
				last = len(rows)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		peer := w.PeerNames()[0]
		for i := 0; i < iters; i++ {
			if err := sys.Publish(ctx, peer, w.GenInsertions(peer, 1)); err != nil {
				errs <- err
				return
			}
			if _, err := sys.Exchange(ctx, ""); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses, _, err := sys.QueryCacheStats("")
	if err != nil {
		t.Fatal(err)
	}
	if hits+misses == 0 {
		t.Fatal("no query traffic recorded")
	}
}
