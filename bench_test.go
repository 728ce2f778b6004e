// Benchmarks regenerating the paper's evaluation (§6): one benchmark
// family per figure, plus the paper's own design comparisons. The cases
// live in internal/benchharness (GoBenches); `make bench-smoke` runs each
// once so they keep compiling. Sizes are laptop-scale; run
// cmd/benchfig -scale N for the full parameter sweeps. Performance
// claims are made with the repository benchmark (bench/README.md).
package orchestra

import (
	"strings"
	"testing"

	"orchestra/internal/benchharness"
)

// benchFig runs every registered case of one figure as sub-benchmarks.
func benchFig(b *testing.B, fig int) {
	for _, c := range benchharness.GoBenches() {
		if c.Fig != fig {
			continue
		}
		b.Run(c.Sub, c.Run)
	}
}

// benchFamily runs every registered case under one name prefix.
func benchFamily(b *testing.B, prefix string) {
	for _, c := range benchharness.GoBenches() {
		if !strings.HasPrefix(c.Name, prefix+"/") {
			continue
		}
		b.Run(c.Sub, c.Run)
	}
}

// BenchmarkFig4 compares the three deletion strategies at a 50% deletion
// ratio (the mid-point of Figure 4's x-axis).
func BenchmarkFig4(b *testing.B) { benchFig(b, 4) }

// BenchmarkFig5 measures "time to join the system": the initial full
// computation of all instances and provenance, per backend and dataset.
func BenchmarkFig5(b *testing.B) { benchFig(b, 5) }

// BenchmarkFig6 reports initial instance sizes (tuples and bytes) as
// benchmark metrics rather than timings.
func BenchmarkFig6(b *testing.B) { benchFig(b, 6) }

// BenchmarkFig7 is incremental insertion on the string dataset.
func BenchmarkFig7(b *testing.B) { benchFig(b, 7) }

// BenchmarkFig8 is incremental insertion on the integer dataset.
func BenchmarkFig8(b *testing.B) { benchFig(b, 8) }

// BenchmarkFig9 is incremental deletion scale-up (1% and 10% loads,
// integer and string datasets).
func BenchmarkFig9(b *testing.B) { benchFig(b, 9) }

// BenchmarkFig10 measures fixpoint computation as topology cycles are
// added (0–3), reporting tuples at fixpoint as a metric.
func BenchmarkFig10(b *testing.B) { benchFig(b, 10) }

// BenchmarkEvolveVsRebuild compares spec evolution's incremental mapping
// removal (provenance-driven rule deletion, the live-reconfiguration
// path) against tearing the view down and recomputing from the base —
// the cost a frozen-spec CDSS pays for any confederation change.
func BenchmarkEvolveVsRebuild(b *testing.B) { benchFamily(b, "EvolveVsRebuild") }

// BenchmarkAblationProvTables compares §5's composite mapping table
// against the pre-optimization per-RHS-atom encoding on a multi-relation
// workload (the design choice DESIGN.md calls out; the paper reports the
// composite form "performed better").
func BenchmarkAblationProvTables(b *testing.B) { benchFamily(b, "AblationProvTables") }
