package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (the layers themselves are not instrumented). Times are
// nanoseconds since the tracer started; Parent is the id of the span
// that caused this one (-1 for an operation's root), and all spans of
// one publication, query or cycle share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// harnessLayer owns the root spans: its self time is what the stepped
// iteration spent outside every layer call.
const harnessLayer = "harness"

// tracer keeps spans in memory until the workload ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name, layer string, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Start: t.now(), Parent: parent, Op: op})
	return id
}

func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// call records fn as a span.
func (t *tracer) call(name, layer string, parent, op int, fn func(id int) error) error {
	id := t.begin(name, layer, parent, op)
	err := fn(id)
	t.end(id)
	return err
}

// within records work the callee reported about itself (a phase timer
// in the statistics a public call returned) as a child span of the
// still-open parent. Only its length is known, so it is placed at the
// parent's start, after any earlier such child: self time depends on
// lengths alone.
func (t *tracer) within(name, layer string, parent int, d time.Duration) {
	if d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start := p.Start
	for _, s := range t.spans[parent+1:] {
		if s.Parent == parent && s.End > start {
			start = s.End
		}
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Layer: layer, Start: start, End: start + int64(d), Parent: parent, Op: p.Op})
}

// reset drops the spans recorded so far (set-up, warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
}

// take returns the recorded spans and stops the tracer from being
// appended to by stragglers.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	t.spans = nil
	return spans
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (parallel tasks under one scheduler run), so the covered part
// is the length of the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// attribution sums self time per layer and reports coverage: the share
// of the root spans' wall time that was spent inside some layer call,
// i.e. one minus the harness's own share.
func attribution(spans []span) (perLayer map[string]time.Duration, coverage float64) {
	perLayer = make(map[string]time.Duration)
	var wall int64
	for i, self := range selfTimes(spans) {
		perLayer[spans[i].Layer] += time.Duration(self)
		if spans[i].Parent < 0 {
			wall += spans[i].End - spans[i].Start
		}
	}
	return perLayer, 1 - ratio(float64(perLayer[harnessLayer]), float64(wall))
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
