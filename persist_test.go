package orchestra_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"orchestra"
)

// randomHistory generates a reproducible publication sequence: each
// publication is one peer's edit log of 1–3 random insertions and
// (over previously inserted tuples) deletions.
func randomHistory(seed int64, n int) []struct {
	peer string
	log  orchestra.EditLog
} {
	rng := rand.New(rand.NewSource(seed))
	peers := []struct {
		name  string
		rel   string
		arity int
	}{
		{"PGUS", "G", 3},
		{"PBioSQL", "B", 2},
		{"PuBio", "U", 2},
	}
	inserted := map[string][]orchestra.Tuple{}
	history := make([]struct {
		peer string
		log  orchestra.EditLog
	}, n)
	for i := range history {
		p := peers[rng.Intn(len(peers))]
		var log orchestra.EditLog
		for k := rng.Intn(3) + 1; k > 0; k-- {
			if prev := inserted[p.name]; len(prev) > 0 && rng.Float64() < 0.3 {
				log = append(log, orchestra.Del(p.rel, prev[rng.Intn(len(prev))]))
				continue
			}
			vals := make([]any, p.arity)
			for j := range vals {
				vals[j] = rng.Intn(6)
			}
			t := orchestra.MakeTuple(vals...)
			inserted[p.name] = append(inserted[p.name], t)
			log = append(log, orchestra.Ins(p.rel, t))
		}
		history[i].peer, history[i].log = p.name, log
	}
	return history
}

// TestPersistenceRoundTripRandom is the persistence property test: for
// random workloads, checkpoint → restart → recover must yield
// instances, provenance answers, and Pending counts identical to a
// system that never restarted — on both the durable in-memory bus and
// the HTTP bus.
func TestPersistenceRoundTripRandom(t *testing.T) {
	sp := parseTestSpec(t)
	ctx := context.Background()
	owners := []string{"", "PGUS", "PBioSQL", "PuBio"}

	exchangeAll := func(t *testing.T, sys *orchestra.System) {
		t.Helper()
		for _, owner := range owners {
			if _, err := sys.Exchange(ctx, owner); err != nil {
				t.Fatal(err)
			}
		}
	}
	digests := func(t *testing.T, sys *orchestra.System) map[string]string {
		t.Helper()
		out := make(map[string]string, len(owners))
		for _, owner := range owners {
			out[owner] = digest(t, sys, owner)
		}
		return out
	}

	for seed := int64(0); seed < 3; seed++ {
		history := randomHistory(seed, 8)
		half := len(history) / 2

		// Reference: the never-restarted system.
		ref, err := orchestra.New(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range history {
			if err := ref.Publish(ctx, p.peer, p.log); err != nil {
				t.Fatal(err)
			}
		}
		exchangeAll(t, ref)
		want := digests(t, ref)

		// run drives the durable lifecycle: first half, restart (via
		// reopen, which rebuilds System and bus), second half.
		run := func(t *testing.T, open func(t *testing.T) *orchestra.System) {
			sys := open(t)
			for _, p := range history[:half] {
				if err := sys.Publish(ctx, p.peer, p.log); err != nil {
					t.Fatal(err)
				}
			}
			exchangeAll(t, sys)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			sys = open(t)
			for _, owner := range owners {
				pending, err := sys.Pending(ctx, owner)
				if err != nil {
					t.Fatal(err)
				}
				if pending != 0 {
					t.Fatalf("seed %d: view %q has %d pending right after recovery, want 0", seed, owner, pending)
				}
			}
			for _, p := range history[half:] {
				if err := sys.Publish(ctx, p.peer, p.log); err != nil {
					t.Fatal(err)
				}
			}
			exchangeAll(t, sys)
			got := digests(t, sys)
			for _, owner := range owners {
				if got[owner] != want[owner] {
					t.Errorf("seed %d: recovered view %q diverged:\n-- recovered --\n%s\n-- reference --\n%s",
						seed, owner, got[owner], want[owner])
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
		}

		t.Run(fmt.Sprintf("seed%d/membus", seed), func(t *testing.T) {
			dir := t.TempDir()
			run(t, func(t *testing.T) *orchestra.System {
				sys, err := orchestra.New(sp, orchestra.WithPersistence(dir))
				if err != nil {
					t.Fatal(err)
				}
				return sys
			})
		})

		t.Run(fmt.Sprintf("seed%d/httpbus", seed), func(t *testing.T) {
			dir := t.TempDir()
			busLog := filepath.Join(t.TempDir(), "pubs.olg")
			var stopServer func()
			t.Cleanup(func() {
				if stopServer != nil {
					stopServer()
				}
			})
			run(t, func(t *testing.T) *orchestra.System {
				// Each open simulates a full restart: the previous bus
				// server goes down (releasing its log lock, as a dead
				// process would), then a fresh server reloads the durable
				// publication log and a fresh System recovers its views
				// from the state directory.
				if stopServer != nil {
					stopServer()
				}
				srv := orchestra.NewBusServer()
				if _, err := srv.PersistTo(busLog); err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv)
				stopServer = func() { ts.Close(); srv.Close() }
				sys, err := orchestra.New(sp,
					orchestra.WithBus(orchestra.NewHTTPBus(ts.URL)),
					orchestra.WithPersistence(dir))
				if err != nil {
					t.Fatal(err)
				}
				return sys
			})
		})
	}
}

// TestSeedFileEditsResumes checks the idempotent seeding contract: a
// bus already holding a prefix of the spec file's publications (e.g. a
// first run that crashed mid-seeding) gets only the missing tail.
func TestSeedFileEditsResumes(t *testing.T) {
	parsed, err := orchestra.ParseSpecString(testCDSS + `
edit PGUS    + G(1,2,3)
edit PGUS    + G(3,5,2)
edit PBioSQL + B(3,5)
edit PuBio   + U(2,5)
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()

	// A "crashed" first run: only the first of the three publications
	// (PGUS's two edits batch into one) made it to the durable bus.
	sys, err := orchestra.New(parsed.Spec, orchestra.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{
		orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3)),
		orchestra.Ins("G", orchestra.MakeTuple(3, 5, 2)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys, err = orchestra.New(parsed.Spec, orchestra.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	added, err := sys.SeedFileEdits(ctx, parsed)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Errorf("SeedFileEdits added %d publications, want the 2 missing ones", added)
	}
	if h, _ := sys.BusHorizon(ctx); h.Total() != 3 {
		t.Errorf("bus holds %d publications after resumed seeding, want 3", h.Total())
	}
	// Seeding again is a no-op.
	if added, err = sys.SeedFileEdits(ctx, parsed); err != nil || added != 0 {
		t.Errorf("re-seed: added %d, err %v; want 0, nil", added, err)
	}
	// A fully seeded system matches a never-crashed one.
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	ref, err := orchestra.New(parsed.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.PublishFileEdits(ctx, parsed); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if got, want := digest(t, sys, ""), digest(t, ref, ""); got != want {
		t.Errorf("resumed seeding diverged:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointEveryPolicy checks that CheckpointEvery(n) amortizes:
// no snapshot until n publications accumulated, then one.
func TestCheckpointEveryPolicy(t *testing.T) {
	sp := parseTestSpec(t)
	ctx := context.Background()
	sys, err := orchestra.New(sp, orchestra.WithPersistence(t.TempDir(), orchestra.CheckpointEvery(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(i, i, i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(2)
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	views, err := sys.PersistedViews()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 0 {
		t.Fatalf("checkpointed after 2 < 3 publications: %+v", views)
	}
	publish(2)
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	views, err = sys.PersistedViews()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].Cursor != 4 {
		t.Fatalf("after 4 publications: %+v, want one checkpoint at cursor 4", views)
	}
}

// TestCheckpointManualPolicy checks that CheckpointManual persists
// nothing until System.Checkpoint, and that the explicit checkpoint
// recovers.
func TestCheckpointManualPolicy(t *testing.T) {
	sp := parseTestSpec(t)
	ctx := context.Background()
	dir := t.TempDir()
	sys, err := orchestra.New(sp, orchestra.WithPersistence(dir, orchestra.CheckpointManual()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if views, _ := sys.PersistedViews(); len(views) != 0 {
		t.Fatalf("manual policy auto-checkpointed: %+v", views)
	}
	if err := sys.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	views, err := sys.PersistedViews()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].Cursor != 1 {
		t.Fatalf("after explicit checkpoint: %+v", views)
	}
	want := digest(t, sys, "")
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := orchestra.New(sp, orchestra.WithPersistence(dir, orchestra.CheckpointManual()))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := digest(t, recovered, ""); got != want {
		t.Errorf("recovered digest diverged:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointWithoutPersistenceFails pins the error contract.
func TestCheckpointWithoutPersistenceFails(t *testing.T) {
	sys, err := orchestra.New(parseTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(context.Background()); err == nil {
		t.Error("Checkpoint without WithPersistence succeeded")
	}
	if _, err := sys.PersistedViews(); err == nil {
		t.Error("PersistedViews without WithPersistence succeeded")
	}
}

// TestRecoveryRejectsBusBehindCursor enforces the durability
// invariant: a persisted cursor must never exceed the bus's
// publication horizon. Losing the durable bus log while keeping the
// view snapshots must fail loudly, not silently re-import from zero.
func TestRecoveryRejectsBusBehindCursor(t *testing.T) {
	sp := parseTestSpec(t)
	ctx := context.Background()
	dir := t.TempDir()
	sys, err := orchestra.New(sp, orchestra.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "bus.shards")); err != nil {
		t.Fatal(err)
	}
	_, err = orchestra.New(sp, orchestra.WithPersistence(dir))
	if err == nil || !strings.Contains(err.Error(), "exceeds durable bus length") {
		t.Fatalf("recovery with truncated bus: %v, want horizon-invariant error", err)
	}
}

// TestRecoveryRebuildsPositionlessCheckpoint opens a state directory as
// a release before sharded cursors left it: the manifest records
// "cursor": 3 with no "position". Such a checkpoint names no place on
// the bus, so its snapshot is discarded (the path a stale-fingerprint
// snapshot takes) and the view rebuilds from publication zero — ending
// with the same instances and rejections as a System that never
// restarted.
func TestRecoveryRebuildsPositionlessCheckpoint(t *testing.T) {
	sp := parseTestSpec(t)
	ctx := context.Background()
	history := randomHistory(4, 6)
	state := func(sys *orchestra.System) string {
		out := digest(t, sys, "")
		for _, rel := range sys.RelationNames() {
			rej, err := sys.Rejections("", rel)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]string, len(rej))
			for i, r := range rej {
				rows[i] = r.String()
			}
			sort.Strings(rows)
			out += fmt.Sprintf("rejected %s=%v\n", rel, rows)
		}
		return out
	}

	ref, err := orchestra.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range history {
		if err := ref.Publish(ctx, p.peer, p.log); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	want := state(ref)

	dir := t.TempDir()
	sys, err := orchestra.New(sp, orchestra.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range history[:3] {
		if err := sys.Publish(ctx, p.peer, p.log); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the manifest by hand into the pre-position shape.
	manifestPath := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Version int                       `json:"version"`
		Spec    string                    `json:"spec"`
		Views   map[string]map[string]any `json:"views"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	global := manifest.Views[""]
	if global["cursor"] != float64(3) || global["position"] == nil {
		t.Fatalf("fixture manifest entry %v, want cursor 3 with a position", global)
	}
	delete(global, "position")
	if raw, err = json.Marshal(manifest); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sys, err = orchestra.New(sp, orchestra.WithPersistence(dir))
	if err != nil {
		t.Fatalf("reopening a position-less state directory: %v", err)
	}
	defer sys.Close()
	if views, _ := sys.PersistedViews(); len(views) != 0 {
		t.Fatalf("position-less checkpoint was kept: %+v", views)
	}
	if pending, err := sys.Pending(ctx, ""); err != nil || pending != 3 {
		t.Fatalf("pending after reopen = %d, %v; want all 3 publications (rebuild from zero)", pending, err)
	}
	for _, p := range history[3:] {
		if err := sys.Publish(ctx, p.peer, p.log); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if got := state(sys); got != want {
		t.Errorf("rebuilt view diverged:\n-- rebuilt --\n%s\n-- uninterrupted --\n%s", got, want)
	}
	if views, _ := sys.PersistedViews(); len(views) != 1 || views[0].Cursor != len(history) || views[0].Position == "" {
		t.Errorf("checkpoint after rebuild: %+v, want cursor %d with a position", views, len(history))
	}
}

// TestConcurrentExchangeWithCheckpoints hammers a durable System from
// many goroutines (publishes, exchanges with policy checkpoints,
// explicit Checkpoints) and then verifies a recovered System matches.
// Run with -race.
func TestConcurrentExchangeWithCheckpoints(t *testing.T) {
	sp := parseTestSpec(t)
	dir := t.TempDir()
	sys, err := orchestra.New(sp, orchestra.WithPersistence(dir, orchestra.CheckpointEvery(2)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, rounds*4)
	for i := 0; i < rounds; i++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(i, i+1, i+2))}); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := sys.Exchange(ctx, ""); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := sys.Exchange(ctx, "PGUS"); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			if err := sys.Checkpoint(ctx); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := sys.ExchangeAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	want := digest(t, sys, "")
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := orchestra.New(sp, orchestra.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for _, owner := range []string{"", "PGUS"} {
		pending, err := recovered.Pending(ctx, owner)
		if err != nil {
			t.Fatal(err)
		}
		if pending != 0 {
			t.Errorf("recovered view %q has %d pending, want 0", owner, pending)
		}
	}
	if got := digest(t, recovered, ""); got != want {
		t.Errorf("recovered digest diverged:\n%s\nwant:\n%s", got, want)
	}
}

// copyStateDir copies a state directory file by file, as a backup of a
// live node's disk would: recovery from the copy must reproduce the
// node's views. Copying between operations, the copy is a consistent
// cut.
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// journalFiles lists a state directory's view journals.
func journalFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "view-*.jnl"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// checkpointKinds classifies the checkpoints between two PersistedViews
// readings: a view whose generation moved was folded into a new base
// snapshot, one whose cursor moved at the same generation appended a
// journal frame.
func checkpointKinds(before, after []orchestra.ViewState) (appends, folds int) {
	prev := map[string]orchestra.ViewState{}
	for _, vs := range before {
		prev[vs.Owner] = vs
	}
	for _, vs := range after {
		p, ok := prev[vs.Owner]
		switch {
		case !ok || p.Generation != vs.Generation:
			folds++
		case p.Cursor != vs.Cursor:
			appends++
		}
	}
	return appends, folds
}

// TestJournalRecoveryEquivalence is the journal's recovery property:
// after every exchange of a random history, a System opened on a copy
// of the state directory — base snapshots plus journals — has the same
// instances, provenance answers and Pending counts as the live one, on
// both the durable in-memory bus and the HTTP bus. The histories must
// drive both checkpoint kinds: journal appends and folds into a new
// base.
func TestJournalRecoveryEquivalence(t *testing.T) {
	sp := parseTestSpec(t)
	ctx := context.Background()
	owners := []string{"", "PGUS", "PBioSQL", "PuBio"}

	check := func(t *testing.T, seed int64, open func(t *testing.T, dir string) *orchestra.System) {
		dir := t.TempDir()
		sys := open(t, dir)
		defer sys.Close()
		var appends, folds int
		for i, p := range randomHistory(seed, 16) {
			if err := sys.Publish(ctx, p.peer, p.log); err != nil {
				t.Fatal(err)
			}
			before, err := sys.PersistedViews()
			if err != nil {
				t.Fatal(err)
			}
			for _, owner := range owners {
				if _, err := sys.Exchange(ctx, owner); err != nil {
					t.Fatal(err)
				}
			}
			after, err := sys.PersistedViews()
			if err != nil {
				t.Fatal(err)
			}
			a, f := checkpointKinds(before, after)
			appends, folds = appends+a, folds+f

			recovered := open(t, copyStateDir(t, dir))
			for _, owner := range owners {
				if got, want := digest(t, recovered, owner), digest(t, sys, owner); got != want {
					t.Fatalf("seed %d, publication %d: view %q recovered from the copy diverged:\n-- recovered --\n%s\n-- live --\n%s",
						seed, i, owner, got, want)
				}
				got, err := recovered.Pending(ctx, owner)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sys.Pending(ctx, owner)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d, publication %d: view %q has %d pending after recovery, live has %d", seed, i, owner, got, want)
				}
			}
			if err := recovered.Close(); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("seed %d: %d journal appends, %d folds", seed, appends, folds)
		if appends == 0 || folds == 0 {
			t.Errorf("seed %d: %d journal appends and %d folds; the history must drive both", seed, appends, folds)
		}
	}

	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed%d/membus", seed), func(t *testing.T) {
			check(t, seed, func(t *testing.T, dir string) *orchestra.System {
				sys, err := orchestra.New(sp, orchestra.WithPersistence(dir))
				if err != nil {
					t.Fatal(err)
				}
				return sys
			})
		})
		t.Run(fmt.Sprintf("seed%d/httpbus", seed), func(t *testing.T) {
			srv := orchestra.NewBusServer()
			ts := httptest.NewServer(srv)
			t.Cleanup(func() { ts.Close(); srv.Close() })
			check(t, seed, func(t *testing.T, dir string) *orchestra.System {
				sys, err := orchestra.New(sp,
					orchestra.WithBus(orchestra.NewHTTPBus(ts.URL)),
					orchestra.WithPersistence(dir))
				if err != nil {
					t.Fatal(err)
				}
				return sys
			})
		})
	}
}

// seedBase publishes n distinct G tuples and exchanges the global view,
// so its first checkpoint — always a fold — writes a base large enough
// that single-publication checkpoints after it append.
func seedBase(t *testing.T, sys *orchestra.System, n int) {
	t.Helper()
	ctx := context.Background()
	var log orchestra.EditLog
	for i := 0; i < n; i++ {
		log = append(log, orchestra.Ins("G", orchestra.MakeTuple(100+i, 200+i, 300+i)))
	}
	if err := sys.Publish(ctx, "PGUS", log); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailResumesFromPreviousCommit cuts the journal's last
// frame in half, as a crash mid-append would: recovery drops it and
// resumes from the frame before, so exactly the publications past that
// commit are pending again, and replaying them converges.
func TestJournalTornTailResumesFromPreviousCommit(t *testing.T) {
	sp := parseTestSpec(t)
	ctx := context.Background()
	dir := t.TempDir()
	sys, err := orchestra.New(sp, orchestra.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	seedBase(t, sys, 40)
	var cursors []int
	for _, p := range randomHistory(1, 4) {
		if err := sys.Publish(ctx, p.peer, p.log); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Exchange(ctx, ""); err != nil {
			t.Fatal(err)
		}
		views, err := sys.PersistedViews()
		if err != nil {
			t.Fatal(err)
		}
		if views[0].Generation != 1 {
			t.Fatalf("checkpoint at cursor %d folded (generation %d); this test needs appends", views[0].Cursor, views[0].Generation)
		}
		cursors = append(cursors, views[0].Cursor)
	}
	want := digest(t, sys, "")
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	jnl := journalFiles(t, dir)
	if len(jnl) != 1 {
		t.Fatalf("journals %v, want one", jnl)
	}
	data, err := os.ReadFile(jnl[0])
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last frame mid-frame: keep a few of its bytes.
	if err := os.WriteFile(jnl[0], data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	sys, err = orchestra.New(sp, orchestra.WithPersistence(dir))
	if err != nil {
		t.Fatalf("recovery over a torn journal: %v", err)
	}
	defer sys.Close()
	resume := cursors[len(cursors)-2]
	if views, _ := sys.PersistedViews(); len(views) != 1 || views[0].Cursor != resume {
		t.Fatalf("recovered checkpoint %+v, want the previous commit at cursor %d", views, resume)
	}
	horizon, err := sys.BusHorizon(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pending, err := sys.Pending(ctx, ""); err != nil || pending != horizon.Total()-resume {
		t.Fatalf("pending = %d, %v; want horizon %d minus cursor %d", pending, err, horizon.Total(), resume)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if got := digest(t, sys, ""); got != want {
		t.Errorf("view after torn-tail recovery diverged:\n%s\nwant:\n%s", got, want)
	}
}

// TestJournalEvolutionFolds: a spec evolution between two appends
// recompiles the view, so its checkpoint is a fold under the new
// fingerprint, and the next exchange appends to the new base.
func TestJournalEvolutionFolds(t *testing.T) {
	sp := parseTestSpec(t)
	ctx := context.Background()
	dir := t.TempDir()
	sys, err := orchestra.New(sp, orchestra.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	seedBase(t, sys, 40)
	history := randomHistory(2, 2)
	exchange := func(i int) orchestra.ViewState {
		t.Helper()
		if err := sys.Publish(ctx, history[i].peer, history[i].log); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Exchange(ctx, ""); err != nil {
			t.Fatal(err)
		}
		views, err := sys.PersistedViews()
		if err != nil {
			t.Fatal(err)
		}
		return views[0]
	}
	if vs := exchange(0); vs.Generation != 1 {
		t.Fatalf("first single-publication checkpoint %+v, want an append to generation 1", vs)
	}
	diff, err := orchestra.ParseSpecDiffString("remove mapping m4")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ApplyDiff(ctx, diff); err != nil {
		t.Fatal(err)
	}
	views, err := sys.PersistedViews()
	if err != nil {
		t.Fatal(err)
	}
	if views[0].Generation != 2 {
		t.Fatalf("checkpoint after ApplyDiff %+v, want a fold to generation 2", views[0])
	}
	if vs := exchange(1); vs.Generation != 2 {
		t.Fatalf("checkpoint after the fold %+v, want an append to generation 2", vs)
	}
	if jnl := journalFiles(t, dir); len(jnl) != 1 || !strings.HasSuffix(jnl[0], "-2.jnl") {
		t.Fatalf("journals %v, want only generation 2's", jnl)
	}
	want := digest(t, sys, "")
	recovered, err := orchestra.New(sys.Spec(), orchestra.WithPersistence(copyStateDir(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := digest(t, recovered, ""); got != want {
		t.Errorf("recovered evolved view diverged:\n%s\nwant:\n%s", got, want)
	}
}

// histogramSum reads a histogram's _sum and _count from Prometheus
// text.
func histogramSum(t *testing.T, o *orchestra.Observability, name string) (sum float64, count int) {
	t.Helper()
	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+"_sum %g", &v); err == nil {
			sum = v
		}
		if _, err := fmt.Sscanf(line, name+"_count %g", &v); err == nil {
			count = int(v)
		}
	}
	return sum, count
}

// TestCheckpointBytesFollowTheDelta: after seeding, a one-publication
// exchange's checkpoint writes at most a tenth of the full snapshot's
// bytes, as the System's own orchestra_checkpoint_bytes reports it.
func TestCheckpointBytesFollowTheDelta(t *testing.T) {
	ctx := context.Background()
	o := orchestra.NewObservability(0)
	sys, err := orchestra.New(parseTestSpec(t), orchestra.WithPersistence(t.TempDir()), orchestra.WithObservability(o))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	seedBase(t, sys, 60)
	full, n := histogramSum(t, o, "orchestra_checkpoint_bytes")
	if n != 1 {
		t.Fatalf("%d checkpoints after seeding, want 1", n)
	}
	if err := sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		t.Fatal(err)
	}
	sum, n := histogramSum(t, o, "orchestra_checkpoint_bytes")
	if n != 2 {
		t.Fatalf("%d checkpoints after one more exchange, want 2", n)
	}
	if delta := sum - full; delta > full/10 {
		t.Errorf("one-publication checkpoint wrote %.0f bytes against a %.0f-byte snapshot; want at most a tenth", delta, full)
	}
	// A checkpoint with nothing new writes nothing.
	if err := sys.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, n := histogramSum(t, o, "orchestra_checkpoint_bytes"); n != 2 {
		t.Errorf("an unchanged view's checkpoint wrote a frame (%d checkpoints, want 2)", n)
	}
}
