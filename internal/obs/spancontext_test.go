package obs

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if !sc.Valid() {
		t.Fatalf("freshly minted span context invalid: %+v", sc)
	}
	got, ok := ParseTraceparent(sc.Traceparent())
	if !ok || got != sc {
		t.Fatalf("round trip: parsed %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	cases := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"00-4bf92f3577b34da6-00f067aa0ba902b7-01",                 // short trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba9-01",     // short span id
		"00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
	}
	for _, in := range cases {
		if sc, ok := ParseTraceparent(in); ok {
			t.Errorf("ParseTraceparent(%q) accepted as %+v", in, sc)
		}
	}
}

func TestEnsureSpanAndContext(t *testing.T) {
	ctx := context.Background()
	if id := TraceIDFromContext(ctx); id != "" {
		t.Fatalf("empty context has trace id %q", id)
	}
	ctx1, sc1 := EnsureSpan(ctx)
	if !sc1.Valid() {
		t.Fatalf("EnsureSpan minted invalid context %+v", sc1)
	}
	if got, ok := SpanFromContext(ctx1); !ok || got != sc1 {
		t.Fatalf("SpanFromContext = %+v ok=%v, want %+v", got, ok, sc1)
	}
	// Idempotent: a second EnsureSpan keeps the existing span.
	ctx2, sc2 := EnsureSpan(ctx1)
	if sc2 != sc1 || ctx2 != ctx1 {
		t.Fatalf("EnsureSpan re-minted: %+v vs %+v", sc2, sc1)
	}
	if id := TraceIDFromContext(ctx1); id != sc1.TraceID {
		t.Fatalf("TraceIDFromContext = %q, want %q", id, sc1.TraceID)
	}
}

// TestPubTracerFind: beyond the ring (TestRing), a PubTracer looks
// records up by trace id, newest first, and forgets evicted ones.
func TestPubTracerFind(t *testing.T) {
	tr := NewPubTracer(4)
	for i := 0; i < 6; i++ {
		tr.Add(PubRecord{TraceID: fmt.Sprintf("t%d", i), Cursor: i + 1})
	}
	tr.Add(PubRecord{TraceID: "t4", Cursor: 70}) // a newer record under an id already held
	// Capacity 4: t0..t2 were evicted.
	if r := tr.Find("t2"); r != nil {
		t.Fatalf("evicted record still found: %+v", r)
	}
	if r := tr.Find("t5"); r == nil || r.Cursor != 6 {
		t.Fatalf("Find(t5) = %+v, want cursor 6", r)
	}
	if r := tr.Find("t4"); r == nil || r.Cursor != 70 {
		t.Fatalf("Find(t4) = %+v, want the most recent record (cursor 70)", r)
	}
	if got := tr.Last(2); len(got) != 2 || got[0].TraceID != "t4" || got[1].TraceID != "t5" {
		t.Fatalf("Last(2) = %+v", got)
	}
	// Nil receiver is inert.
	var nilTr *PubTracer
	nilTr.Add(PubRecord{})
	if nilTr.Find("x") != nil || nilTr.Last(1) != nil {
		t.Fatal("nil PubTracer not inert")
	}
}

func TestSlowQueryRingNilSafe(t *testing.T) {
	ring := NewSlowQueryRing(2)
	ring.Add(QueryStats{Query: "q0"})
	if last := ring.Last(5); ring.Count() != 1 || len(last) != 1 || last[0].Query != "q0" {
		t.Fatalf("Count = %d, Last(5) = %+v", ring.Count(), last)
	}
	var nilRing *SlowQueryRing
	nilRing.Add(QueryStats{})
	if nilRing.Last(1) != nil || nilRing.Count() != 0 {
		t.Fatal("nil SlowQueryRing not inert")
	}
}

// TestPromEscapingTable drives the exposition escapers through the
// characters the Prometheus text format reserves, including the
// fast-path (no escapes needed) branch.
func TestPromEscapingTable(t *testing.T) {
	cases := []struct {
		in, label, help string
	}{
		{`plain`, `plain`, `plain`},
		{``, ``, ``},
		{`back\slash`, `back\\slash`, `back\\slash`},
		{"line\nbreak", `line\nbreak`, `line\nbreak`},
		{`say "hi"`, `say \"hi\"`, `say "hi"`}, // quotes only escape in labels
		{"all\\three\n\"x\"", `all\\three\n\"x\"`, "all\\\\three\\n\"x\""},
	}
	for _, tc := range cases {
		if got := escapeLabel(tc.in); got != tc.label {
			t.Errorf("escapeLabel(%q) = %q, want %q", tc.in, got, tc.label)
		}
		if got := escapeHelp(tc.in); got != tc.help {
			t.Errorf("escapeHelp(%q) = %q, want %q", tc.in, got, tc.help)
		}
	}
}

// TestPromEscapingEndToEnd proves an adversarial label value cannot
// break series parsing in a full scrape.
func TestPromEscapingEndToEnd(t *testing.T) {
	r := NewRegistry()
	r.Counter("evil", "tracks \"strange\" values\nsecond line",
		L("q", "ans(x) :- R(\"a\\b\",\nx)")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Count(line, "\n") != 0 {
			t.Fatalf("physical line contains raw newline: %q", line)
		}
	}
	if !strings.Contains(out, `evil{q="ans(x) :- R(\"a\\b\",\nx)"} 1`) {
		t.Fatalf("escaped series missing:\n%s", out)
	}
}
