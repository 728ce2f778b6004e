package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// TestStatsStateDir builds a durable state directory with one CLI run
// and then renders it with `orchestra stats -state`.
func TestStatsStateDir(t *testing.T) {
	path := writeSpec(t)
	state := filepath.Join(t.TempDir(), "state")
	if err := run([]string{"run", "-state", state, path}, io.Discard); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"stats", "-state", state}, &out); err != nil {
		t.Fatalf("stats -state: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"state directory " + state,
		"spec fingerprint",
		"3 publications (bus.shards)", // the spec file's three peer-contiguous edit runs
		"VIEW", "CURSOR", "PENDING", "SNAPSHOT AGE",
		"(global)", // the default -owner "" view was checkpointed
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stats -state output missing %q:\n%s", want, got)
		}
	}
	// The checkpointed view is caught up: pending 0.
	if !strings.Contains(got, "3       0") {
		t.Errorf("expected cursor 3 / pending 0 in output:\n%s", got)
	}
}

// TestStatsDaemon renders the live dashboard against a canned
// /healthz + /metrics server, exercising the scrape parser end to end.
func TestStatsDaemon(t *testing.T) {
	const metrics = `# HELP orchestra_exchange_passes_total Completed exchange passes.
# TYPE orchestra_exchange_passes_total counter
orchestra_exchange_passes_total{kind="exchange_all"} 3
orchestra_exchange_pass_duration_seconds_count{kind="exchange_all"} 3
orchestra_exchange_pass_duration_seconds_sum{kind="exchange_all"} 0.006
orchestra_exchange_publications_total 12
orchestra_exchange_edits_total 20
orchestra_exchange_edits_cancelled_total 4
orchestra_coalesce_cancellation_ratio 0.2
orchestra_checkpoint_age_seconds 1.5
orchestra_publish_accepted_total 6
orchestra_publish_rejected_total 1
orchestra_view_cursor{view="(global)"} 6
orchestra_view_cursor{view="PGUS"} 5
orchestra_bus_lag{view="(global)"} 0
orchestra_bus_lag{view="PGUS"} 1
orchestra_build_info{go_version="go1.24",version="v0.9.0"} 1
orchestra_process_uptime_seconds 42
orchestra_query_cache_hits 30
orchestra_query_cache_misses 10
orchestra_query_duration_seconds_bucket{le="0.001",outcome="hit"} 25
orchestra_query_duration_seconds_bucket{le="0.01",outcome="hit"} 30
orchestra_query_duration_seconds_bucket{le="+Inf",outcome="hit"} 30
orchestra_query_duration_seconds_bucket{le="0.001",outcome="miss"} 2
orchestra_query_duration_seconds_bucket{le="0.01",outcome="miss"} 8
orchestra_query_duration_seconds_bucket{le="+Inf",outcome="miss"} 10
`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			io.WriteString(w, "ok 6 publications uptime=5s\n")
		case "/metrics":
			io.WriteString(w, metrics)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	var out strings.Builder
	if err := run([]string{"stats", "-url", ts.URL}, &out); err != nil {
		t.Fatalf("stats -url: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"orchestrad at " + ts.URL,
		"ok 6 publications",
		"passes=3",
		"publications=12",
		"avg=2ms over 3 passes",
		"edits=20 cancelled=4 last-pass ratio=0.20",
		"age=1.5s",
		"accepted=6 rejected=1 failed=0",
		"build        v0.9.0 (go1.24)",
		"uptime       42s",
		"hits=30 misses=10 hit-ratio=75.0%",
		"p50=", "p99=", "over 40 queries",
		"(global)", "PGUS",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stats -url output missing %q:\n%s", want, got)
		}
	}
	// Per-view rows carry cursor and lag.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "PGUS") && !strings.Contains(line, "5") {
			t.Errorf("PGUS row missing cursor 5: %q", line)
		}
	}
}

// TestStatsArgValidation covers the mutually exclusive flag rules.
func TestStatsArgValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"stats"}, "requires -state dir or -url"},
		{[]string{"stats", "-state", "a", "-url", "b"}, "not both"},
		{[]string{"stats", "-state", "a", "extra.cdss"}, "no spec file"},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("orchestra %v: error %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

// TestStatsUnreachableDaemon reports a connection failure, not a panic
// or an empty dashboard.
func TestStatsUnreachableDaemon(t *testing.T) {
	err := run([]string{"stats", "-url", "http://127.0.0.1:1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "daemon unreachable") {
		t.Errorf("expected unreachable error, got %v", err)
	}
}
