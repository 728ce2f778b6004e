package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// maxSpansWritten bounds a span file; attribution uses every span.
const maxSpansWritten = 100000

// runTraced is the -trace 1 run of one workload. A quarter of the time
// goes to a short end-to-end run (the untraced side of trace_overhead),
// a quarter to the stepped run that records spans, and half to the
// layer probes. End-to-end metrics are never taken from here.
func (w *workload) runTraced(ctx context.Context, o runOptions) (res result) {
	res = result{Workload: w.name, Seed: o.seed, Seconds: o.seconds, OpsCount: w.op,
		Metrics: map[string]metric{}, Diagnostics: map[string]metric{}}
	fail := func(err error) result {
		res.Correct = false
		res.Attempted = max(res.Attempted, 1)
		res.Failed++
		if res.Error == "" {
			res.Error = err.Error()
		}
		return res
	}
	sz := w.sizes(o.quick)
	newDir := func(kind string) (string, error) { return os.MkdirTemp(o.dir, w.name+"-"+kind+"-") }

	// The untraced side.
	dir, err := newDir("facade")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	facade, err := w.setup(ctx, sz, o.seed, dir)
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	untraced, _, err := measure(ctx, facade, o.seconds/4)
	if cerr := facade.close(); err == nil {
		err = cerr
	}
	res.Attempted, res.Failed = untraced.attempted, untraced.failed
	if err != nil {
		return fail(err)
	}

	// The stepped side.
	if dir, err = newDir("stepped"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	stepped, err := w.stepped(ctx, sz, o.seed, dir, tr)
	if err != nil {
		return fail(fmt.Errorf("stepped set-up: %w", err))
	}
	defer stepped.close()
	res.InputHash = stepped.inputs().stream.inputHash()
	tr.reset() // set-up and warm-up spans are not part of the measurement
	traced, wall, err := measure(ctx, stepped, o.seconds/4)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	if err != nil {
		return fail(err)
	}
	spans := tr.take()
	res.Attempted++
	if err := stepped.check(ctx); err != nil {
		fail(err)
	}
	for _, rec := range []*recorder{untraced, traced} {
		if rec.firstErr != nil && res.Error == "" {
			res.Error = rec.firstErr.Error()
		}
	}

	layers, coverage := attribution(spans)
	ops := float64(max(len(traced.visible)+len(traced.query), 1))
	for layer, self := range layers {
		res.Diagnostics["stepped."+layer+".self_ms_per_op"] = metric{Value: float64(self) / float64(time.Millisecond) / ops, Unit: "ms"}
	}
	res.Diagnostics["coverage"] = metric{Value: coverage, Unit: "ratio", Samples: len(spans)}
	res.Diagnostics["stepped_s"] = metric{Value: wall.Seconds(), Unit: "s"}
	// The stepped run reproduces visible_p50_ms out of layer calls; on
	// serve-mixed, whose operations are mostly reads, query_p50_us too.
	res.Diagnostics["trace_overhead"] = metric{Value: ratio(ms(traced.visible).Value, ms(untraced.visible).Value), Unit: "ratio"}
	res.Diagnostics["untraced.visible_p50_ms"] = ms(untraced.visible)
	res.Diagnostics["stepped.visible_p50_ms"] = ms(traced.visible)
	res.Diagnostics["untraced.publish_p50_ms"] = ms(untraced.publish)
	res.Diagnostics["stepped.publish_p50_ms"] = ms(traced.publish)
	res.Diagnostics["untraced.query_p50_us"] = us(untraced.query)
	res.Diagnostics["stepped.query_p50_us"] = us(traced.query)

	if err := os.MkdirAll(o.traces, 0o755); err != nil {
		return fail(err)
	}
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	path := filepath.Join(o.traces, "trace-"+w.name+".json")
	if err := writeTrace(path, traceFile{Workload: w.name, Seed: o.seed, Spans: spans}); err != nil {
		return fail(err)
	}

	// The layer probes.
	if dir, err = newDir("probes"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	res.Attempted++
	// The probes replay the workload from its seed state, so they take
	// freshly generated inputs, not the stream the stepped run advanced.
	in, err := w.inputs(sz, o.seed)
	if err != nil {
		return fail(err)
	}
	probed, err := probeLayers(ctx, in, dir, o.seconds/2)
	if err != nil {
		fail(fmt.Errorf("layer probes: %w", err))
	}
	var missing []string
	for _, m := range perLayer {
		v, ok := probed[m.name]
		if !ok {
			missing = append(missing, m.name)
			v = metric{Unit: m.unit}
		}
		v.Note = "should move " + m.moves
		res.Metrics[m.name] = v
	}
	if len(missing) > 0 && err == nil {
		fail(fmt.Errorf("layer probes reported no %s", strings.Join(missing, ", ")))
	}
	res.Correct = res.Failed == 0
	return res
}
