// Durability: crash-safe checkpoint and recovery with WithPersistence.
//
// The program re-executes itself as a worker that runs a durable
// System out of a state directory, checkpoints mid-history, publishes
// more edits, tears the durable bus log mid-append, and then SIGKILLs
// itself — no deferred close, no final checkpoint, exactly what a
// power cut leaves behind. The parent then reopens the same state
// directory and checks the recovery contract:
//
//   - the torn tail of the publication log is repaired on open;
//   - the view is restored from its checkpoint (base snapshot plus
//     journal) at the persisted cursor;
//   - the recovery exchange fetches and applies ONLY the publications
//     past that cursor (asserted via bus fetch counts and ApplyStats);
//   - the recovered instances and provenance are identical to a fresh
//     system that replays the full history.
//
// Run with: go run ./examples/durability
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync/atomic"

	"orchestra"
)

const cdss = `
peer PGUS    { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
peer PuBio   { relation U(nam int, can int) }

mapping m1: G(i,c,n) -> B(i,n)
mapping m2: G(i,c,n) -> U(n,c)
mapping m3: B(i,n) -> exists c . U(n,c)
mapping m4: B(i,c), U(n,c) -> B(i,n)
`

// The published history: three publications before the checkpoint,
// two after it (including a curation deletion, so recovery exercises
// provenance-driven deletion propagation too).
type pub struct {
	peer string
	log  orchestra.EditLog
}

var beforeCheckpoint = []pub{
	{"PGUS", orchestra.EditLog{
		orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3)),
		orchestra.Ins("G", orchestra.MakeTuple(3, 5, 2)),
	}},
	{"PBioSQL", orchestra.EditLog{orchestra.Ins("B", orchestra.MakeTuple(3, 5))}},
	{"PuBio", orchestra.EditLog{orchestra.Ins("U", orchestra.MakeTuple(2, 5))}},
}

var afterCheckpoint = []pub{
	{"PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(7, 8, 9))}},
	{"PBioSQL", orchestra.EditLog{orchestra.Del("B", orchestra.MakeTuple(3, 2))}},
}

const (
	roleEnv = "ORCHESTRA_DURABILITY_ROLE"
	dirEnv  = "ORCHESTRA_DURABILITY_DIR"
)

func main() {
	if os.Getenv(roleEnv) == "worker" {
		worker(os.Getenv(dirEnv))
		return // unreachable: worker ends in SIGKILL
	}

	dir, err := os.MkdirTemp("", "orchestra-durability")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Phase 1: the worker builds durable state and dies hard.
	fmt.Println("== Phase 1: durable worker, hard-killed mid-append ==")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), roleEnv+"=worker", dirEnv+"="+dir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	err = cmd.Run()
	if err == nil {
		log.Fatal("worker exited cleanly; expected it to SIGKILL itself")
	}
	fmt.Printf("worker died hard as planned (%v) — no clean close, no final checkpoint\n\n", err)

	// Phase 2: recover from the state directory.
	fmt.Println("== Phase 2: restart with WithPersistence ==")
	spec := parseSpec()
	bus, err := orchestra.OpenShardedFileBus(filepath.Join(dir, "bus.shards"), filepath.Join(dir, "bus.olg"))
	if err != nil {
		log.Fatal(err)
	}
	if bus.RepairedBytes() == 0 {
		log.Fatal("expected the bus log's torn tail to need repair")
	}
	horizon, err := bus.Horizon(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bus log: repaired %d-byte torn tail; %d publications survived\n", bus.RepairedBytes(), horizon.Total())
	counting := &countingBus{bus: bus}
	sys, err := orchestra.New(spec, orchestra.WithBus(counting), orchestra.WithPersistence(dir))
	if err != nil {
		log.Fatal(err)
	}

	views, err := sys.PersistedViews()
	if err != nil {
		log.Fatal(err)
	}
	if len(views) != 1 || views[0].Cursor != len(beforeCheckpoint) {
		log.Fatalf("persisted views = %+v, want one view at cursor %d", views, len(beforeCheckpoint))
	}
	ctx := context.Background()
	pending, err := sys.Pending(ctx, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered view at cursor %d (snapshot generation %d), %d publications pending\n",
		views[0].Cursor, views[0].Generation, pending)
	if pending != len(afterCheckpoint) {
		log.Fatalf("pending = %d, want %d (only the post-checkpoint publications)", pending, len(afterCheckpoint))
	}

	stats, err := sys.Exchange(ctx, "")
	if err != nil {
		log.Fatal(err)
	}
	// The recovery exchange must replay only what the checkpoint had not
	// yet seen: two publications, not the full history of five.
	if got := counting.fetched.Load(); got != int64(len(afterCheckpoint)) {
		log.Fatalf("recovery exchange fetched %d publications from the bus, want %d", got, len(afterCheckpoint))
	}
	if stats.InsL != 1 || stats.InsR != 1 {
		log.Fatalf("recovery exchange ApplyStats = %+v, want exactly the tail's 1 insertion + 1 curation rejection", stats)
	}
	fmt.Printf("recovery exchange fetched %d publications, applied %d insertions and %d curation rejections\n\n",
		counting.fetched.Load(), stats.InsL, stats.InsR)

	// Phase 3: a fresh system replays the full history; both must agree.
	fmt.Println("== Phase 3: recovered state vs. full re-exchange ==")
	fresh, err := orchestra.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range append(append([]pub{}, beforeCheckpoint...), afterCheckpoint...) {
		if err := fresh.Publish(ctx, p.peer, p.log); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := fresh.Exchange(ctx, ""); err != nil {
		log.Fatal(err)
	}
	recoveredDigest, freshDigest := digest(sys), digest(fresh)
	fmt.Print(recoveredDigest)
	if recoveredDigest != freshDigest {
		log.Fatalf("recovered state diverged from full replay:\n-- recovered --\n%s-- fresh --\n%s", recoveredDigest, freshDigest)
	}
	fmt.Println("\nrecovered instances and provenance match a fresh full exchange — durability holds")
}

// worker runs the pre-crash life of the system: exchange + checkpoint,
// more publications, a torn append, then SIGKILL.
func worker(dir string) {
	ctx := context.Background()
	sys, err := orchestra.New(parseSpec(), orchestra.WithPersistence(dir))
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range beforeCheckpoint {
		if err := sys.Publish(ctx, p.peer, p.log); err != nil {
			log.Fatal(err)
		}
	}
	// The default policy checkpoints after the exchange, while still
	// holding the view's lock: state and cursor commit together.
	if _, err := sys.Exchange(ctx, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worker: exchanged and checkpointed %d publications\n", len(beforeCheckpoint))

	// More publications land on the durable bus, but the view never
	// exchanges them: the checkpoint stays at the earlier cursor.
	for _, p := range afterCheckpoint {
		if err := sys.Publish(ctx, p.peer, p.log); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("worker: published %d more without exchanging\n", len(afterCheckpoint))

	// Simulate the crash cutting a sixth append short: a frame header
	// claiming 512 bytes with only a fragment behind it, on one of the
	// sharded bus's per-peer segment files.
	segs, err := filepath.Glob(filepath.Join(dir, "bus.shards", "shard-*.olg"))
	if err != nil || len(segs) == 0 {
		log.Fatalf("no shard segments to tear (%v): %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 2, 0, 'P', 'a', 'r', 't', 'i', 'a', 'l'}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("worker: tore the bus log mid-append; pulling the plug")
	os.Stdout.Sync()

	// kill -9: no deferred closes, no atexit, nothing.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		log.Fatal(err)
	}
	p.Kill()
	select {} // wait for the signal to land
}

func parseSpec() *orchestra.Spec {
	parsed, err := orchestra.ParseSpecString(cdss)
	if err != nil {
		log.Fatal(err)
	}
	return parsed.Spec
}

// countingBus wraps a PublicationBus and counts publications actually
// fetched — the replay traffic recovery is supposed to minimize.
type countingBus struct {
	bus     orchestra.PublicationBus
	fetched atomic.Int64
}

func (c *countingBus) Append(ctx context.Context, peer string, log orchestra.EditLog) error {
	return c.bus.Append(ctx, peer, log)
}

func (c *countingBus) Fetch(ctx context.Context, from orchestra.Cursor) ([]orchestra.Delta, orchestra.Cursor, error) {
	deltas, next, err := c.bus.Fetch(ctx, from)
	c.fetched.Add(int64(len(deltas)))
	return deltas, next, err
}

func (c *countingBus) Horizon(ctx context.Context) (orchestra.Cursor, error) {
	return c.bus.Horizon(ctx)
}

// digest renders instances (sorted) plus the provenance of two tuples
// into one comparable string.
func digest(sys *orchestra.System) string {
	ctx := context.Background()
	out := ""
	for _, rel := range sys.RelationNames() {
		descs, err := sys.DescribeInstance("", rel)
		if err != nil {
			log.Fatal(err)
		}
		out += fmt.Sprintf("%s: %v\n", rel, descs)
	}
	for _, tup := range []orchestra.Tuple{orchestra.MakeTuple(3, 5), orchestra.MakeTuple(7, 9)} {
		info, err := sys.Provenance(ctx, "", "B", tup)
		if err != nil {
			log.Fatal(err)
		}
		sort.Strings(info.Support)
		out += fmt.Sprintf("Pv(B%s) = %s derivable=%v support=%v\n", tup, info.Expr, info.Derivable, info.Support)
	}
	return out
}
