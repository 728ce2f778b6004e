package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"orchestra"
	"orchestra/internal/core"
)

// sizes fixes a workload's shape. Every count the timed section depends
// on lives here, so two runs of one workload execute the same
// operations on the same amount of state and differ only in how many
// cycles fit into -seconds.
type sizes struct {
	peers int
	// base and churn are the entries per peer seeded before timing:
	// base entries are never deleted, churn entries feed the deletions.
	base, churn int
	// pubs is the number of publications per cycle (per peer on
	// exchange-backlog).
	pubs int
	// history is the number of publications restart-cycle's state
	// directory holds before the first timed open.
	history int
	// writeEvery, hot and cold shape serve-mixed's traffic: one write
	// per writeEvery operations, a hot set of that many distinct queries
	// and a cold set of that many distinct point probes.
	writeEvery, hot, cold int
	// warm is the number of untimed cycles run at the end of set-up.
	warm int
}

// workload is one entry of the benchmark: why it exists, how big it is,
// and how to build it.
type workload struct {
	name string
	// why is the one-sentence reason BENCHMARK.json repeats.
	why string
	// op is what ops_per_s counts on this workload.
	op          string
	full, quick sizes
	// inputs generates the workload's inputs from a seed. setup builds
	// the workload on them from facade objects (Systems, buses, servers)
	// for the end-to-end run; stepped builds the same workload from the
	// layers' own public functions for the traced run.
	inputs  func(sz sizes, seed int64) (*inputs, error)
	setup   func(ctx context.Context, sz sizes, seed int64, dir string) (instance, error)
	stepped func(ctx context.Context, sz sizes, seed int64, dir string, tr *tracer) (instance, error)
}

// workloads is the benchmark. The quick sizes are about a hundredth of
// the full ones and exist so a test can run everything in seconds.
var workloads = []workload{
	{
		name:   "propagate-wire",
		why:    "publish to visible over the deployed topology: HTTP bus, fsync, /watch push and a whole-view checkpoint do the work, the engine does little",
		op:     "publications made visible on the follower",
		full:   sizes{peers: 4, base: 400, churn: 16, pubs: 1, warm: 20},
		quick:  sizes{peers: 4, base: 8, churn: 8, pubs: 1, warm: 2},
		inputs: propagateInputs, setup: setupPropagate, stepped: steppedPropagate,
	},
	{
		name:   "exchange-backlog",
		why:    "16 peer views catch up on a backlog in memory: engine, provenance, maintenance, storage and the scheduler do all the work, the I/O layers none",
		op:     "edit-log entries consumed by the views",
		full:   sizes{peers: 16, base: 4, churn: 32, pubs: 8, warm: 2},
		quick:  sizes{peers: 6, base: 2, churn: 8, pubs: 2, warm: 1},
		inputs: backlogInputs, setup: setupBacklog, stepped: steppedBacklog,
	},
	{
		name:   "serve-mixed",
		why:    "queries beside writes on one view: the cache-hit path sets query latency, the miss path and the invalidating writes set queries per second",
		op:     "queries answered",
		full:   sizes{peers: 4, base: 256, churn: 8, pubs: 1, writeEvery: 128, hot: 16, cold: 1024, warm: 16384},
		quick:  sizes{peers: 4, base: 4, churn: 4, pubs: 1, writeEvery: 8, hot: 4, cold: 16, warm: 16},
		inputs: serveInputs, setup: setupServe, stepped: steppedServe,
	},
	{
		name:   "restart-cycle",
		why:    "reopen a durable peer over a long history and catch up: log open and replay, checkpoint load and snapshot decode dominate, on the sharded bus",
		op:     "restart cycles completed",
		full:   sizes{peers: 4, base: 400, churn: 16, pubs: 4, history: 2000, warm: 3},
		quick:  sizes{peers: 4, base: 8, churn: 8, pubs: 4, history: 20, warm: 1},
		inputs: restartInputs, setup: setupRestart, stepped: steppedRestart,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// instance is a set-up workload: a closed loop with one client, because
// every caller in a CDSS waits for its reply.
type instance interface {
	// cycle runs one iteration of the loop, recording each operation.
	cycle(ctx context.Context, rec *recorder) error
	// check compares the reached state against the oracle.
	check(ctx context.Context) error
	// inputs describes the generated inputs for the layer probes and
	// the determinism tests.
	inputs() *inputs
	close() error
}

// opTimeout fails an operation that has not completed by then.
const opTimeout = 5 * time.Second

// recorder collects one run's operations. An operation that errors,
// times out or answers wrongly is failed and contributes no latency
// sample: it counts as missing every latency.
type recorder struct {
	publish, visible, query []time.Duration
	// ops is the numerator of ops_per_s, in the workload's own unit.
	ops               int
	attempted, failed int
	firstErr          error
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// timed runs one operation and files its latency under dst.
func (r *recorder) timed(dst *[]time.Duration, op func() error) bool {
	r.attempted++
	start := time.Now()
	err := op()
	d := time.Since(start)
	if err == nil && d > opTimeout {
		err = fmt.Errorf("operation took %v", d)
	}
	if err != nil {
		r.fail(err)
		return false
	}
	*dst = append(*dst, d)
	return true
}

// expectRows checks a probe's answer.
func expectRows(q query, rows []orchestra.Tuple, want int) error {
	if len(rows) != want {
		return fmt.Errorf("%s: %d rows, want %d", q.text, len(rows), want)
	}
	return nil
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Error     string            `json:"error,omitempty"`
	InputHash string            `json:"input_hash"`
	Metrics   map[string]metric `json:"metrics"`
	// OpsCount says what ops_per_s counts on this workload.
	OpsCount string `json:"ops_per_s_counts"`
	// Diagnostics are printed, never gated.
	Diagnostics map[string]metric `json:"diagnostics"`
}

// endToEnd names the metrics every untraced run reports, with unit and
// direction; BENCHMARK.json repeats them with their bounds.
var endToEnd = []struct {
	name, unit string
	higher     bool
	bound      float64
	meaning    string
}{
	{"setup_s", "s", false, 0.25, "wall time to generate inputs, build systems and servers, seed base state and history, and warm up, before the first timed operation (median of the run's set-ups)"},
	{"publish_p50_ms", "ms", false, 0.20, "System.Publish call to return: acknowledged, and durable where the workload's bus is"},
	{"visible_p50_ms", "ms", false, 0.20, "from the start of the workload's propagation step to the return of the first System.Query whose answer contains the newest published tuple"},
	{"query_p50_us", "us", false, 0.15, "one System.Query call to rows returned"},
	{"ops_per_s", "1/s", true, 0.20, "the workload's operations completed per second of the measured loop, everything in the loop included"},
}

// setupReps is how many times an untraced run sets the workload up;
// setup_s is the median, and the last instance is the one measured.
const setupReps = 3

type runOptions struct {
	seed    int64
	seconds float64
	quick   bool
	// dir holds the run's state directories, traces its span files.
	dir, traces string
}

func (w *workload) sizes(quick bool) sizes {
	if quick {
		return w.quick
	}
	return w.full
}

// minCycles keeps a very short (-quick) run from measuring nothing.
const minCycles = 3

// measure drives the closed loop for the requested time.
func measure(ctx context.Context, inst instance, seconds float64) (*recorder, time.Duration, error) {
	rec := &recorder{}
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for n := 0; n < minCycles || time.Since(start) < limit; n++ {
		if err := inst.cycle(ctx, rec); err != nil {
			return rec, time.Since(start), err
		}
	}
	return rec, time.Since(start), nil
}

// runEndToEnd is the untraced run: set up, measure, check.
func (w *workload) runEndToEnd(ctx context.Context, o runOptions) (res result) {
	res = result{Workload: w.name, Seed: o.seed, Seconds: o.seconds, OpsCount: w.op,
		Metrics: map[string]metric{}, Diagnostics: map[string]metric{}}
	fail := func(err error) result {
		res.Correct = false
		res.Attempted = max(res.Attempted, 1)
		res.Failed = max(res.Failed, 1)
		res.Error = err.Error()
		return res
	}
	var (
		inst   instance
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return fail(err)
			}
		}
		dir, err := os.MkdirTemp(o.dir, w.name+"-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		if inst, err = w.setup(ctx, w.sizes(o.quick), o.seed, dir); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	res.InputHash = inst.inputs().stream.inputHash()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec, wall, err := measure(ctx, inst, o.seconds)
	runtime.ReadMemStats(&after)
	res.Attempted, res.Failed = rec.attempted, rec.failed
	if err != nil {
		return fail(err)
	}
	res.Attempted++
	if err := inst.check(ctx); err != nil {
		rec.fail(err)
		res.Failed = rec.failed
	}
	res.Correct = res.Failed == 0
	if rec.firstErr != nil {
		res.Error = rec.firstErr.Error()
	}

	sort.Float64s(setups)
	res.Metrics["setup_s"] = metric{Value: percentile(setups, 50), Unit: "s", Samples: len(setups)}
	res.Metrics["publish_p50_ms"] = ms(rec.publish)
	res.Metrics["visible_p50_ms"] = ms(rec.visible)
	res.Metrics["query_p50_us"] = us(rec.query)
	res.Metrics["ops_per_s"] = metric{Value: float64(rec.ops) / wall.Seconds(), Unit: "1/s", Samples: rec.ops}
	for _, m := range endToEnd {
		v := res.Metrics[m.name]
		v.Note = m.meaning
		res.Metrics[m.name] = v
	}
	ops := float64(max(rec.attempted, 1))
	res.Diagnostics["allocs_per_op"] = metric{Value: float64(after.Mallocs-before.Mallocs) / ops, Unit: "count"}
	res.Diagnostics["bytes_per_op"] = metric{Value: float64(after.TotalAlloc-before.TotalAlloc) / ops, Unit: "bytes"}
	res.Diagnostics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	res.Diagnostics["measured_s"] = metric{Value: wall.Seconds(), Unit: "s"}
	return res
}

// inputs is what a workload generated: the layer probes re-measure each
// layer on exactly these, and the determinism tests hash them.
type inputs struct {
	spec   *core.Spec
	stream *stream
	// owner is the view the workload reads.
	owner string
	// indexes are the secondary indexes declared on that view.
	indexes []indexDecl
	// seedPubs build the base state, history (restart-cycle only) the
	// log the timed section opens over; pass generates the next run of
	// publications one maintenance pass of this workload consumes.
	seedPubs []core.Publication
	history  []core.Publication
	pass     func() []core.Publication
	// hot and cold are the workload's queries: hot ones repeat, cold
	// ones do not.
	hot, cold []query
}

// indexDecl declares a secondary index on a column of a relation's
// curated instance.
type indexDecl struct{ rel, col string }

// indexOptions declares the inputs' indexes on a System's view.
func (in *inputs) indexOptions() []orchestra.Option {
	opts := make([]orchestra.Option, len(in.indexes))
	for i, d := range in.indexes {
		opts[i] = orchestra.WithSecondaryIndex(in.owner, d.rel, d.col)
	}
	return opts
}

// newView builds the inputs' view from the core layer directly, with
// the same indexes.
func (in *inputs) newView(owner string) (*core.View, error) {
	v, err := core.NewView(in.spec, owner, core.Options{})
	if err != nil {
		return nil, err
	}
	if owner == in.owner {
		for _, d := range in.indexes {
			if err := v.DeclareSecondaryIndex(d.rel, d.col); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}
