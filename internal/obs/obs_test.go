package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	c.Add(0)  // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same instrument.
	if again := r.Counter("requests_total", "Requests served."); again != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestGaugeSetAddValue(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth", "Depth.")
	g.Set(3)
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 4.5 {
		t.Fatalf("gauge = %v, want 4.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", []float64{1})
	r.GaugeFunc("w", "", func() float64 { return 1 })
	// All emission on nil instruments must be no-ops, not panics.
	c.Inc()
	c.Add(10)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments should read zero")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry render: %v", err)
	}

	var tr *Tracer
	tr.Add(StartPass("exchange"))
	if tr.Last(5) != nil || tr.Count() != 0 {
		t.Fatal("nil tracer should be inert")
	}
	var p *PassTrace
	p.AddView(ViewPass{})
	if p.Finish(nil) != nil || p.SpanTree() != nil {
		t.Fatal("nil pass trace should be inert")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %v, want 106", got)
	}
	// Bucket occupancy: <=1 gets 0.5 and 1; <=2 gets 1.5; <=4 gets 3;
	// overflow gets 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 4) },
		func() { ExpBuckets(1, 1, 4) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("ExpBuckets accepted invalid arguments")
				}
			}()
			bad()
		}()
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("orchestra_requests_total", "Requests.", L("path", "/metrics")).Add(7)
	r.Gauge("orchestra_bus_lag", "Lag.", L("view", "p1")).Set(3)
	r.GaugeFunc("orchestra_up", "Up.", func() float64 { return 1 })
	h := r.Histogram("orchestra_pass_seconds", "Pass latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP orchestra_requests_total Requests.\n",
		"# TYPE orchestra_requests_total counter\n",
		`orchestra_requests_total{path="/metrics"} 7` + "\n",
		"# TYPE orchestra_bus_lag gauge\n",
		`orchestra_bus_lag{view="p1"} 3` + "\n",
		"orchestra_up 1\n",
		"# TYPE orchestra_pass_seconds histogram\n",
		`orchestra_pass_seconds_bucket{le="0.1"} 1` + "\n",
		`orchestra_pass_seconds_bucket{le="1"} 2` + "\n",
		`orchestra_pass_seconds_bucket{le="+Inf"} 3` + "\n",
		"orchestra_pass_seconds_sum 5.55\n",
		"orchestra_pass_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q\n---\n%s", want, out)
		}
	}
	// Deterministic: a second scrape is byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("successive scrapes differ")
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help with \\ and\nnewline", L("k", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP m help with \\ and\nnewline`) {
		t.Fatalf("help not escaped: %s", out)
	}
	if !strings.Contains(out, `m{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped: %s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:            "1",
		0.5:          "0.5",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		math.NaN():   "NaN",
		1.25e9:       "1.25e+09",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestConcurrentEmission(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", []float64{1, 10})
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 20))
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
}

// TestRing pins the one bounded ring behind Tracer, PubTracer and
// SlowQueryRing: newest-first reads, eviction at capacity, count of
// everything ever added, and stamping under the lock.
func TestRing(t *testing.T) {
	for _, c := range []struct {
		name     string
		capacity int
		adds     int
		ask      int
		want     []int // newest first
	}{
		{"empty", 3, 0, 10, []int{}},
		{"partly filled", 3, 2, 10, []int{2, 1}},
		{"exactly full", 3, 3, 10, []int{3, 2, 1}},
		{"wrapped", 3, 5, 10, []int{5, 4, 3}},
		{"wrapped twice", 4, 9, 10, []int{9, 8, 7, 6}},
		{"ask for fewer than held", 4, 6, 2, []int{6, 5}},
		{"ask for none", 3, 5, 0, nil},
		{"capacity below one is one", 0, 3, 10, []int{3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRing[int](c.capacity)
			for i := 1; i <= c.adds; i++ {
				var ordinal uint64
				r.add(i, func(n uint64) { ordinal = n })
				if ordinal != uint64(i) {
					t.Fatalf("add %d stamped ordinal %d", i, ordinal)
				}
			}
			if got := r.count(); got != uint64(c.adds) {
				t.Fatalf("count = %d, want %d", got, c.adds)
			}
			got := r.last(c.ask)
			if (got == nil) != (c.want == nil) || len(got) != len(c.want) {
				t.Fatalf("last(%d) = %v, want %v", c.ask, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("last(%d) = %v, want %v", c.ask, got, c.want)
				}
			}
		})
	}
}

// TestTracerStampsSeq: the tracer's own behaviour on top of the ring is
// the sequence number it stamps into each pass.
func TestTracerStampsSeq(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Add(StartPass("exchange"))
	}
	if tr.Count() != 5 {
		t.Fatalf("count = %d, want 5", tr.Count())
	}
	last := tr.Last(10)
	if len(last) != 3 || last[0].Seq != 5 || last[2].Seq != 3 {
		t.Fatalf("Last(10) seqs: %d passes, want 5,4,3", len(last))
	}
}

func TestPassTraceSpanTree(t *testing.T) {
	p := StartPass("exchange_all")
	p.AddView(ViewPass{
		Owner: "p1", WallNS: 1000,
		FetchNS: 100, NetEffectNS: 200, DeleteNS: 300, InsertNS: 400,
		Publications: 2, EditsIn: 10, EditsCancelled: 4,
		TuplesDeleted: 3, CheckpointNS: 50,
	})
	p.AddView(ViewPass{Owner: "", WallNS: 500})
	tr := NewTracer(4)
	p.Finish(tr)
	if p.Seq != 1 {
		t.Fatalf("seq = %d, want 1", p.Seq)
	}
	if p.WallNS <= 0 {
		t.Fatal("wall clock not stamped")
	}

	root := p.SpanTree()
	if root.Name != "pass:exchange_all" {
		t.Fatalf("root name = %q", root.Name)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	v := root.Children[0]
	if v.Name != "view:p1" || v.DurationNS != 1000 {
		t.Fatalf("view span = %q/%d", v.Name, v.DurationNS)
	}
	// fetch, net_effect, delete, insert, checkpoint.
	if len(v.Children) != 5 {
		t.Fatalf("view has %d phase spans, want 5", len(v.Children))
	}
	var phaseSum int64
	for _, ph := range v.Children {
		phaseSum += ph.DurationNS
	}
	if phaseSum != 1050 {
		t.Fatalf("phase sum = %d, want 1050", phaseSum)
	}
	if root.Children[1].Name != "view:(global)" {
		t.Fatalf("global view name = %q", root.Children[1].Name)
	}
	if len(root.Children[1].Children) != 4 {
		t.Fatal("no-checkpoint view should have 4 phase spans")
	}
}

func TestObservabilityBundle(t *testing.T) {
	var o *Observability
	if o.Registry() != nil || o.Tracer() != nil {
		t.Fatal("nil bundle should return nil halves")
	}
	o = NewObservability(0)
	if o.Registry() == nil || o.Tracer() == nil {
		t.Fatal("bundle halves missing")
	}
	o.Registry().Counter("x", "").Inc()
	o.Tracer().Add(StartPass("exchange"))
	if o.Tracer().Count() != 1 {
		t.Fatal("tracer not wired")
	}
}
