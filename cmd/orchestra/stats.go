package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"orchestra"
)

// statsCmd renders a one-shot operations dashboard, either offline
// from a state directory (-state: manifest, bus log, snapshot files —
// no lock taken, safe beside a live System) or live from a running
// orchestrad (-url: /healthz plus a /metrics scrape).
func statsCmd(stateDir, url string, out io.Writer) error {
	switch {
	case stateDir != "" && url != "":
		return fmt.Errorf("stats takes -state or -url, not both")
	case stateDir != "":
		return statsFromStateDir(stateDir, out)
	case url != "":
		return statsFromDaemon(url, out)
	default:
		return fmt.Errorf("stats requires -state dir or -url http://host:port")
	}
}

func statsFromStateDir(dir string, out io.Writer) error {
	info, err := orchestra.InspectStateDir(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "state directory %s\n", info.Dir)
	fp := info.SpecFingerprint
	if fp == "" {
		fp = "(none — fresh or non-state directory)"
	}
	fmt.Fprintf(out, "  spec fingerprint  %s\n", fp)
	if info.BusLen >= 0 {
		fmt.Fprintf(out, "  bus               %d publications (%s)\n", info.BusLen, info.BusName)
	} else {
		fmt.Fprintf(out, "  bus               external (no co-located log)\n")
	}
	if len(info.Views) == 0 {
		fmt.Fprintln(out, "  views             none checkpointed")
		return nil
	}
	fmt.Fprintln(out, "  views")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "    VIEW\tCURSOR\tPENDING\tGEN\tSNAPSHOT AGE\tSIZE")
	for _, v := range info.Views {
		pending := "?"
		if v.Pending >= 0 {
			pending = strconv.Itoa(v.Pending)
		}
		age, size := "missing", ""
		if !v.SnapshotTime.IsZero() {
			age = time.Since(v.SnapshotTime).Round(time.Second).String()
			size = formatBytes(v.SnapshotBytes)
		}
		fmt.Fprintf(tw, "    %s\t%d\t%s\t%d\t%s\t%s\n",
			viewLabel(v.Owner), v.Cursor, pending, v.Generation, age, size)
	}
	return tw.Flush()
}

func statsFromDaemon(url string, out io.Writer) error {
	url = strings.TrimRight(url, "/")
	health, err := fetchText(url + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon unreachable: %w", err)
	}
	metricsText, err := fetchText(url + "/metrics")
	if err != nil {
		return err
	}
	m, err := parseMetrics(strings.NewReader(metricsText))
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "orchestrad at %s\n", url)
	fmt.Fprintf(out, "  health       %s\n", strings.TrimSpace(health))
	if versions := m.labelValues("orchestra_build_info", "version"); len(versions) > 0 {
		build := versions[0]
		if gos := m.labelValues("orchestra_build_info", "go_version"); len(gos) > 0 {
			build += " (" + gos[0] + ")"
		}
		fmt.Fprintf(out, "  build        %s\n", build)
	}
	if up, ok := m.lookup("orchestra_process_uptime_seconds"); ok {
		fmt.Fprintf(out, "  uptime       %s\n",
			(time.Duration(up * float64(time.Second))).Round(time.Second))
	}

	passes := m.value(`orchestra_exchange_passes_total{kind="exchange"}`) +
		m.value(`orchestra_exchange_passes_total{kind="exchange_all"}`)
	failures := m.value(`orchestra_exchange_pass_failures_total{kind="exchange"}`) +
		m.value(`orchestra_exchange_pass_failures_total{kind="exchange_all"}`)
	fmt.Fprintf(out, "  exchange     passes=%.0f failures=%.0f publications=%.0f\n",
		passes, failures, m.value("orchestra_exchange_publications_total"))
	if c := m.sumAcrossLabels("orchestra_exchange_pass_duration_seconds_count"); c > 0 {
		s := m.sumAcrossLabels("orchestra_exchange_pass_duration_seconds_sum")
		fmt.Fprintf(out, "  pass time    avg=%s over %.0f passes\n",
			(time.Duration(s / c * float64(time.Second))).Round(time.Microsecond), c)
	}
	fmt.Fprintf(out, "  coalescing   edits=%.0f cancelled=%.0f last-pass ratio=%.2f\n",
		m.value("orchestra_exchange_edits_total"),
		m.value("orchestra_exchange_edits_cancelled_total"),
		m.value("orchestra_coalesce_cancellation_ratio"))
	if age, ok := m.lookup("orchestra_checkpoint_age_seconds"); ok {
		fmt.Fprintf(out, "  checkpoints  age=%s failures=%.0f\n",
			(time.Duration(age * float64(time.Second))).Round(time.Millisecond),
			m.value("orchestra_checkpoint_failures_total"))
	}
	fmt.Fprintf(out, "  publish      accepted=%.0f rejected=%.0f failed=%.0f\n",
		m.value("orchestra_publish_accepted_total"),
		m.value("orchestra_publish_rejected_total"),
		m.value("orchestra_publish_failed_total"))
	hits, misses := m.value("orchestra_query_cache_hits"), m.value("orchestra_query_cache_misses")
	if hits+misses > 0 {
		fmt.Fprintf(out, "  query cache  hits=%.0f misses=%.0f hit-ratio=%.1f%%\n",
			hits, misses, 100*hits/(hits+misses))
	}
	if bs, total := m.histogramBuckets("orchestra_query_duration_seconds"); total > 0 {
		fmt.Fprintf(out, "  query time   p50=%s p99=%s over %.0f queries\n",
			quantileDuration(bs, total, 0.50),
			quantileDuration(bs, total, 0.99), total)
	}

	views := m.labelValues("orchestra_view_cursor", "view")
	if len(views) > 0 {
		fmt.Fprintln(out, "  views")
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "    VIEW\tCURSOR\tLAG")
		for _, v := range views {
			fmt.Fprintf(tw, "    %s\t%.0f\t%.0f\n", v,
				m.value(fmt.Sprintf(`orchestra_view_cursor{view=%q}`, v)),
				m.value(fmt.Sprintf(`orchestra_bus_lag{view=%q}`, v)))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func fetchText(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return string(body), nil
}

// metricSet is a parsed Prometheus text scrape: full series key
// (name{labels}) to value.
type metricSet map[string]float64

// parseMetrics reads the Prometheus text format the daemon emits. It
// only needs the subset orchestrad's own registry writes: one
// "name{labels} value" or "name value" sample per line, '#' comments.
func parseMetrics(r io.Reader) (metricSet, error) {
	m := make(metricSet)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m metricSet) lookup(key string) (float64, bool) {
	v, ok := m[key]
	return v, ok
}

// value returns a series' sample, 0 when absent.
func (m metricSet) value(key string) float64 { return m[key] }

// sumAcrossLabels sums every series of the named metric regardless of
// labels (e.g. a histogram _count over both pass kinds).
func (m metricSet) sumAcrossLabels(name string) float64 {
	var total float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// histogramBuckets merges a histogram's cumulative bucket counts across
// every label combination (e.g. the query-duration histogram's cache
// outcomes) into one ascending (le, cumulative-count) list, plus the
// total observation count.
func (m metricSet) histogramBuckets(name string) ([]bucket, float64) {
	prefix := name + "_bucket{"
	byLE := make(map[float64]float64)
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		body := strings.TrimSuffix(strings.TrimPrefix(k, prefix), "}")
		for _, kv := range strings.Split(body, ",") {
			raw, ok := strings.CutPrefix(kv, "le=")
			if !ok {
				continue
			}
			if unq, err := strconv.Unquote(raw); err == nil {
				if le, err := strconv.ParseFloat(unq, 64); err == nil {
					byLE[le] += v
				}
			}
		}
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	out := make([]bucket, len(les))
	var total float64
	for i, le := range les {
		out[i] = bucket{le: le, count: byLE[le]}
		total = byLE[le] // cumulative: the +Inf (or last) bucket holds the total
	}
	return out, total
}

// bucket is one cumulative histogram bucket: count of observations <= le.
type bucket struct{ le, count float64 }

// quantileDuration estimates the q-quantile from cumulative buckets by
// linear interpolation within the bucket the rank falls in — the same
// estimate Prometheus's histogram_quantile computes.
func quantileDuration(bs []bucket, total, q float64) time.Duration {
	rank := q * total
	lo, cum := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			width, inBucket := b.le-lo, b.count-cum
			if math.IsInf(b.le, 1) || inBucket <= 0 {
				return time.Duration(lo * float64(time.Second))
			}
			frac := (rank - cum) / inBucket
			return time.Duration((lo + width*frac) * float64(time.Second))
		}
		lo, cum = b.le, b.count
	}
	return time.Duration(lo * float64(time.Second))
}

// labelValues collects the sorted distinct values of one label across
// a metric's series.
func (m metricSet) labelValues(name, label string) []string {
	prefix := name + "{"
	want := label + "="
	seen := make(map[string]bool)
	for k := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		body := strings.TrimSuffix(strings.TrimPrefix(k, prefix), "}")
		for _, kv := range strings.Split(body, ",") {
			if !strings.HasPrefix(kv, want) {
				continue
			}
			if val, err := strconv.Unquote(strings.TrimPrefix(kv, want)); err == nil {
				seen[val] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func viewLabel(owner string) string {
	if owner == "" {
		return "(global)"
	}
	return owner
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
