// Package exchange schedules confederation-parallel update exchange.
//
// Peer views are data-independent consumers of the shared publication
// bus (§2's operational model: every peer independently imports the
// others' published updates): each view owns its database, its
// labeled-null interner, and its bus cursor, and the bus itself is
// safe for concurrent readers. A Scheduler therefore runs the per-view
// maintenance passes concurrently over a bounded worker pool. The
// orchestra System runs two kinds of pass on it — ExchangeAll and the
// push pass StartPush wakes per burst — and inside either the view's
// pending run, pushed (core.ExchangeDeltas) or pulled
// (core.ExchangeCoalesced), goes through core's one apply step as one
// net apply, so one semi-naive fixpoint and one deletion cascade
// replace N sequential ones.
//
// The scheduler itself is deliberately dumb — tasks are opaque
// closures and the result type is generic, so callers (the orchestra
// System, the benchmarks) keep their own locking
// discipline and the package depends on nothing above it. The pool
// only bounds concurrency and makes error reporting deterministic.
package exchange

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/obs"
)

// Task is one view's exchange pass, identified by its owner. Run is
// invoked at most once, possibly on another goroutine; everything it
// touches must either be owned by the task's view or be safe for
// concurrent use.
type Task[R any] struct {
	Owner string
	Run   func(ctx context.Context) (R, error)
}

// Metrics holds the scheduler's instruments. The zero value (all nil)
// disables everything: obs instruments are nil-safe, so emission in the
// worker loop costs nothing when unset.
type Metrics struct {
	// QueueDepth tracks tasks accepted by Run but not yet started.
	QueueDepth *obs.Gauge
	// BusyWorkers tracks tasks currently executing.
	BusyWorkers *obs.Gauge
	// TaskSeconds observes each task's wall clock, in seconds.
	TaskSeconds *obs.Histogram
	// TaskFailures counts tasks that returned an error.
	TaskFailures *obs.Counter
}

// Scheduler runs exchange tasks over a bounded worker pool.
type Scheduler[R any] struct {
	workers int
	m       Metrics
}

// NewScheduler returns a scheduler running at most workers tasks
// concurrently; workers <= 0 selects GOMAXPROCS.
func NewScheduler[R any](workers int) *Scheduler[R] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler[R]{workers: workers}
}

// Workers reports the pool bound.
func (s *Scheduler[R]) Workers() int { return s.workers }

// SetMetrics installs scheduler instruments. Call it before the first
// Run; it is not synchronized against concurrent Runs.
func (s *Scheduler[R]) SetMetrics(m Metrics) { s.m = m }

// runTask executes one task with queue/busy/latency/failure accounting.
func (s *Scheduler[R]) runTask(ctx context.Context, t Task[R]) (R, error) {
	s.m.QueueDepth.Add(-1)
	s.m.BusyWorkers.Add(1)
	start := time.Now()
	r, err := t.Run(ctx)
	s.m.TaskSeconds.Observe(time.Since(start).Seconds())
	s.m.BusyWorkers.Add(-1)
	if err != nil {
		s.m.TaskFailures.Inc()
	}
	return r, err
}

// Run executes every task, at most Workers() concurrently, and returns
// the per-owner results. Tasks are dispatched in slice order, so a
// one-worker scheduler reproduces the classic serial ExchangeAll
// exactly.
//
// On failure the semantics mirror the serial loop as closely as a
// concurrent run can: tasks already started are awaited (their views
// must not be abandoned mid-pass), tasks not yet started are skipped
// and omitted from the result map, and the error reported is the
// lowest-indexed genuine (non-collateral) failure. With a single
// genuinely failing task this attribution is deterministic regardless
// of interleaving; when several fail, cancellation may convert some
// into collateral ctx.Canceled results, so which genuine failure is
// reported can vary. The context passed to still-running tasks is
// cancelled on the first failure so their fixpoints can bail early.
func (s *Scheduler[R]) Run(ctx context.Context, tasks []Task[R]) (map[string]R, error) {
	out := make(map[string]R, len(tasks))
	if len(tasks) == 0 {
		return out, nil
	}
	s.m.QueueDepth.Add(float64(len(tasks)))
	var started atomic.Int64
	// Tasks never started (serial early return, post-failure drain) still
	// leave the queue when Run returns.
	defer func() { s.m.QueueDepth.Add(float64(started.Load()) - float64(len(tasks))) }()
	if s.workers == 1 || len(tasks) == 1 {
		for _, t := range tasks {
			started.Add(1)
			r, err := s.runTask(ctx, t)
			out[t.Owner] = r
			if err != nil {
				return out, fmt.Errorf("exchange: view %q: %w", t.Owner, err)
			}
		}
		return out, nil
	}

	type result struct {
		val R
		err error
		ran bool
	}
	results := make([]result, len(tasks))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(s.workers, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if failed.Load() {
					continue // drain the queue without starting new passes
				}
				started.Add(1)
				r, err := s.runTask(runCtx, tasks[i])
				results[i] = result{val: r, err: err, ran: true}
				if err != nil {
					failed.Store(true)
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	// Report the lowest-indexed genuine failure. Tasks in flight when the
	// first failure cancelled runCtx may themselves return ctx.Canceled at
	// a lower index; those are collateral, not the root cause, so they are
	// preferred only when nothing else failed (i.e. the caller's own ctx
	// was cancelled).
	var firstErr, firstReal error
	for i, r := range results {
		if !r.ran {
			continue
		}
		out[tasks[i].Owner] = r.val
		if r.err == nil {
			continue
		}
		wrapped := fmt.Errorf("exchange: view %q: %w", tasks[i].Owner, r.err)
		if firstErr == nil {
			firstErr = wrapped
		}
		if firstReal == nil && !errors.Is(r.err, context.Canceled) {
			firstReal = wrapped
		}
	}
	if firstReal != nil {
		return out, firstReal
	}
	return out, firstErr
}
