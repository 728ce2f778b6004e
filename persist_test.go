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
