package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// generate builds a workload's inputs at quick size and draws a few
// maintenance passes, returning the fingerprint of everything generated.
func generate(t *testing.T, w *workload, seed int64) string {
	t.Helper()
	in, err := w.inputs(w.quick, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		in.pass()
	}
	return in.stream.inputHash()
}

func TestInputsFollowTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, again, b := generate(t, w, 1), generate(t, w, 1), generate(t, w, 2)
		if a != again {
			t.Errorf("%s: seed 1 generated %s, then %s", w.name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 both generated %s", w.name, a)
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

func TestTailIsTheHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if _, ok := tailRank(n); ok {
			t.Errorf("%d samples have a tail", n)
		}
	}
	for _, c := range []struct {
		n int
		p float64
	}{{11, 100.0 / 11}, {20, 50}, {100, 90}, {999, 100 * 989.0 / 999}, {1000, 99}, {50000, 99}} {
		rank, ok := tailRank(c.n)
		p := 100 * float64(rank) / float64(c.n)
		if !ok || c.n-rank < 10 || math.Abs(p-c.p) > 1e-9 {
			t.Errorf("tail of %d samples = p%v (%v), want p%v", c.n, p, ok, c.p)
		}
	}
	// 100 samples of 1..100 ms: the median is the 50th, the tail is p90 —
	// the 90th sample, with exactly ten beyond it.
	var samples []time.Duration
	for i := 100; i >= 1; i-- {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	m := ms(samples)
	if m.Value != 50 || m.Samples != 100 || m.Tail == nil || m.Tail.Percentile != 90 || m.Tail.Value != 90 {
		t.Errorf("1..100 ms summarized as %+v tail %+v", m, m.Tail)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// root 0..100 has children a 10..50 and b 30..70, which overlap, and
	// c 80..90; a has a child of its own, 20..30, and d lies half outside
	// its parent c. The children cover 10..70 and 80..90 of the root.
	spans := []span{
		{ID: 0, Layer: harnessLayer, Start: 0, End: 100, Parent: -1},
		{ID: 1, Layer: "a", Start: 10, End: 50, Parent: 0},
		{ID: 2, Layer: "b", Start: 30, End: 70, Parent: 0},
		{ID: 3, Layer: "c", Start: 80, End: 90, Parent: 0},
		{ID: 4, Layer: "a2", Start: 20, End: 30, Parent: 1},
		{ID: 5, Layer: "d", Start: 85, End: 95, Parent: 3},
	}
	want := []int64{30, 30, 40, 5, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	layers, coverage := attribution(spans)
	if layers["a"] != 30 || layers["b"] != 40 || layers[harnessLayer] != 30 {
		t.Errorf("per-layer self times %v", layers)
	}
	if math.Abs(coverage-0.7) > 1e-9 {
		t.Errorf("coverage = %v, want 0.7", coverage)
	}
}

func TestWithinStacksReportedPhases(t *testing.T) {
	tr := newTracer()
	id := tr.begin("pass", "core", -1, 1)
	tr.within("fetch", "logstore", id, 30)
	tr.within("eval", "engine", id, 50)
	tr.spans[id].End = tr.spans[id].Start + 100
	self := selfTimes(tr.spans)
	if self[0] != 20 || self[1] != 30 || self[2] != 50 {
		t.Errorf("self times %v, want [20 30 50]", self)
	}
}

// synthetic builds a report with one workload whose end-to-end metrics
// all have the given value.
func synthetic(v float64, failed int) report {
	r := result{Workload: "w", Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		r.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return report{Results: []result{r}}
}

func TestCompare(t *testing.T) {
	with := func(r report, name string, v float64) report {
		m := r.Results[0].Metrics[name]
		m.Value = v
		r.Results[0].Metrics[name] = m
		return r
	}
	for _, c := range []struct {
		name       string
		base, cand report
		pass       bool
		says       string
	}{
		{"same", synthetic(10, 0), synthetic(10, 0), true, ""},
		{"within the bound", synthetic(10, 0), with(synthetic(10, 0), "visible_p50_ms", 10.9), true, ""},
		{"latency regressed", synthetic(10, 0), with(synthetic(10, 0), "visible_p50_ms", 13), false, "WORSE"},
		{"latency improved", synthetic(10, 0), with(synthetic(10, 0), "visible_p50_ms", 5), true, "better"},
		{"throughput regressed", synthetic(10, 0), with(synthetic(10, 0), "ops_per_s", 7), false, "WORSE"},
		{"throughput improved", synthetic(10, 0), with(synthetic(10, 0), "ops_per_s", 20), true, "better"},
		{"set-up has the wider bound", synthetic(10, 0), with(synthetic(10, 0), "setup_s", 12), true, ""},
		{"zero base", synthetic(0, 0), synthetic(1, 0), false, "zero base"},
		{"zero both", synthetic(0, 0), synthetic(0, 0), true, ""},
		{"more failures", synthetic(10, 0), synthetic(10, 1), false, "WORSE"},
		{"workload missing", synthetic(10, 0), report{}, false, "missing"},
	} {
		var out bytes.Buffer
		if got := compareReports(&out, c.base, c.cand); got != c.pass {
			t.Errorf("%s: pass = %v, want %v\n%s", c.name, got, c.pass, out.String())
		}
		if !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: output does not say %q:\n%s", c.name, c.says, out.String())
		}
	}
}

// TestQuickSmoke runs every workload at quick size, end to end and
// traced, oracle on, through the command's own entry point, so the
// benchmark cannot rot unnoticed.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		out := filepath.Join(dir, "report-"+trace+".json")
		if code := run([]string{"-quick", "-trace", trace, "-dir", dir, "-traces", dir, "-out", out}); code != 0 {
			t.Fatalf("bench -quick -trace %s exited %d", trace, code)
		}
		rep, err := loadReport(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != len(workloads) {
			t.Fatalf("-trace %s reported %d workloads, want %d", trace, len(rep.Results), len(workloads))
		}
		for _, r := range rep.Results {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("-trace %s %s: correct=%v failed=%d attempted=%d: %s", trace, r.Workload, r.Correct, r.Failed, r.Attempted, r.Error)
			}
			var want []string
			if trace == "0" {
				for _, m := range endToEnd {
					want = append(want, m.name)
				}
			} else {
				for _, m := range perLayer {
					want = append(want, m.name)
				}
				if _, err := os.Stat(filepath.Join(dir, "trace-"+r.Workload+".json")); err != nil {
					t.Errorf("%s wrote no span file: %v", r.Workload, err)
				}
				if c := r.Diagnostics["coverage"].Value; c < 0.9 {
					t.Errorf("%s: coverage %.3f", r.Workload, c)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("-trace %s %s reports %d metrics, want %d", trace, r.Workload, len(r.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := r.Metrics[name]; !ok {
					t.Errorf("-trace %s %s does not report %s", trace, r.Workload, name)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the
// benchmark driver reads, in step with the tables the program reports
// from.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	var want struct{ w, e, p []entry }
	for _, w := range workloads {
		want.w = append(want.w, entry{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		want.e = append(want.e, entry{Name: m.name, Unit: m.unit, Better: better(m.higher), Bound: m.bound})
	}
	for _, m := range perLayer {
		want.p = append(want.p, entry{Name: m.name, Unit: m.unit, Better: better(m.higher)})
	}
	for _, c := range []struct {
		what      string
		got, want []entry
	}{{"workloads", doc.Workloads, want.w}, {"end_to_end", doc.EndToEnd, want.e}, {"per_layer", doc.PerLayer, want.p}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the program %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}
