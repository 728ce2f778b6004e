package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles is `bench -compare a.json b.json`: a is the base (the
// parent commit, or the first of two runs of the same code), b the
// candidate. It exits non-zero when b is worse than a by more than a
// metric's bound, when a pair cannot be judged, or when b failed a
// larger share of its operations.
func compareFiles(w io.Writer, aPath, bPath string) int {
	a, err := loadReport(aPath)
	if err == nil {
		var b report
		if b, err = loadReport(bPath); err == nil {
			if compareReports(w, a, b) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func loadReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges one pair of values of a metric against its bound.
// worse is how much worse the candidate is as a share of the base
// (negative when it is better).
func verdict(base, cand float64, higherIsBetter bool, bound float64) (worse float64, status string) {
	if base == 0 {
		if cand == 0 {
			return 0, "ok"
		}
		return 0, "unresolved: zero base"
	}
	worse = (cand - base) / base
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return worse, "WORSE"
	case worse < -bound:
		return worse, "better"
	}
	return worse, "ok"
}

// compareReports prints one row per workload and end-to-end metric —
// both values, their ratio with its base, and the bound — and reports
// whether the candidate passes.
func compareReports(w io.Writer, a, b report) bool {
	pass := true
	cands := make(map[string]result)
	for _, r := range b.Results {
		cands[r.Workload] = r
	}
	for _, base := range a.Results {
		cand, ok := cands[base.Workload]
		if !ok {
			fmt.Fprintf(w, "%-17s missing from the candidate report\n", base.Workload)
			pass = false
			continue
		}
		for _, m := range endToEnd {
			bm, bok := base.Metrics[m.name]
			cm, cok := cand.Metrics[m.name]
			if !bok || !cok {
				fmt.Fprintf(w, "%-17s %-15s missing\n", base.Workload, m.name)
				pass = false
				continue
			}
			worse, status := verdict(bm.Value, cm.Value, m.higher, m.bound)
			fmt.Fprintf(w, "%-17s %-15s base %12.4f %-3s  candidate %12.4f %-3s  candidate/base %.3f (base %.4f %s)  worse by %+6.1f%%  bound %2.0f%%  %s\n",
				base.Workload, m.name, bm.Value, bm.Unit, cm.Value, cm.Unit, ratio(cm.Value, bm.Value), bm.Value, bm.Unit, 100*worse, 100*m.bound, status)
			if status != "ok" && status != "better" {
				pass = false
			}
		}
		fa, fb := ratio(float64(base.Failed), float64(base.Attempted)), ratio(float64(cand.Failed), float64(cand.Attempted))
		status := "ok"
		if fb > fa {
			status, pass = "WORSE", false
		}
		fmt.Fprintf(w, "%-17s %-15s base %d/%d  candidate %d/%d  %s\n", base.Workload, "failed", base.Failed, base.Attempted, cand.Failed, cand.Attempted, status)
	}
	return pass
}
