package benchharness

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/engine"
	"orchestra/internal/tgd"
	"orchestra/internal/workload"
)

// GoBench is one Go benchmark case reproducing a slice of a paper figure
// (or one of the paper's design comparisons), run by bench_test.go under
// go test -bench. Performance claims are made with the repository
// benchmark (bench/, BENCHMARK.json); these cases keep the figures'
// comparisons compiling and runnable.
type GoBench struct {
	// Fig is the paper figure the case belongs to (0 for ablations).
	Fig int
	// Name is the full benchmark name, e.g. "Fig5/db2_integer".
	Name string
	// Sub is the sub-benchmark name under the figure's family.
	Sub string
	// Run is the benchmark body.
	Run func(b *testing.B)
}

const goBenchSeed = 42

// goBenchFig4Config is Figure 4's setting: 5 peers, full mappings (full
// tgds, complete topology), string dataset.
func goBenchFig4Config() workload.Config {
	return workload.Config{
		Peers:    5,
		Topology: workload.TopologyComplete,
		AttrMode: workload.AttrsShared,
		Dataset:  workload.DatasetString,
		Seed:     goBenchSeed,
	}
}

// goBenchChainConfig is the §6.4 scale-up setting.
func goBenchChainConfig(peers int, ds workload.Dataset) workload.Config {
	return workload.Config{
		Peers:    peers,
		Topology: workload.TopologyChain,
		AttrMode: workload.AttrsRandom,
		Dataset:  ds,
		Seed:     goBenchSeed,
	}
}

// goBenchDeletionLogs builds per-peer deletion logs covering `entries`
// entries.
func goBenchDeletionLogs(w *workload.Workload, entries int) []core.EditLog {
	var logs []core.EditLog
	for _, peer := range w.PeerNames() {
		logs = append(logs, w.GenDeletions(peer, entries))
	}
	return logs
}

func backendBenchName(be engine.Backend) string {
	if be == engine.BackendHash {
		return "db2"
	}
	return "tukwila"
}

// GoBenches returns every benchmark case in stable order.
func GoBenches() []GoBench {
	var out []GoBench
	add := func(fig int, sub string, run func(b *testing.B)) {
		name := fmt.Sprintf("Fig%d/%s", fig, sub)
		if fig == 0 {
			name = "AblationProvTables/" + sub
		}
		out = append(out, GoBench{Fig: fig, Name: name, Sub: sub, Run: run})
	}

	// Figure 4: the three deletion strategies at a 50% deletion ratio (the
	// mid-point of the figure's x-axis).
	{
		const base = 40
		for _, strategy := range []core.DeletionStrategy{
			core.DeleteProvenance, core.DeleteDRed, core.DeleteRecompute,
		} {
			add(4, strategy.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sc, err := BuildScenario(goBenchFig4Config(), base, engine.BackendIndexed)
					if err != nil {
						b.Fatal(err)
					}
					logs := goBenchDeletionLogs(sc.W, base/2)
					b.StartTimer()
					for _, log := range logs {
						if _, err := sc.View.ApplyEdits(context.Background(), log, strategy); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}

	// Figure 5: "time to join the system" — the initial full computation of
	// all instances and provenance, per backend and dataset.
	{
		const peers, base = 5, 30
		for _, series := range []struct {
			name string
			ds   workload.Dataset
			be   engine.Backend
		}{
			{"db2_integer", workload.DatasetInteger, engine.BackendHash},
			{"tukwila_integer", workload.DatasetInteger, engine.BackendIndexed},
			{"db2_string", workload.DatasetString, engine.BackendHash},
			{"tukwila_string", workload.DatasetString, engine.BackendIndexed},
		} {
			add(5, series.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w, err := workload.New(goBenchChainConfig(peers, series.ds))
					if err != nil {
						b.Fatal(err)
					}
					logs := w.GenBase(base)
					v, err := core.NewView(w.Spec, "", core.Options{Backend: series.be})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for _, peer := range w.PeerNames() {
						if _, err := v.ApplyEdits(context.Background(), logs[peer], core.DeleteProvenance); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}

	// Figure 6: initial instance sizes (tuples and bytes) as benchmark
	// metrics rather than timings.
	{
		const peers, base = 5, 30
		for _, ds := range []workload.Dataset{workload.DatasetInteger, workload.DatasetString} {
			add(6, ds.String(), func(b *testing.B) {
				var rows, bytes float64
				for i := 0; i < b.N; i++ {
					sc, err := BuildScenario(goBenchChainConfig(peers, ds), base, engine.BackendIndexed)
					if err != nil {
						b.Fatal(err)
					}
					rows = float64(sc.View.DB().TotalRows())
					bytes = float64(sc.View.DB().TotalBytes())
				}
				b.ReportMetric(rows, "tuples")
				b.ReportMetric(bytes, "dbbytes")
			})
		}
	}

	// Figures 7 and 8: the §6.4 incremental-insertion scale-up, string and
	// integer datasets.
	for _, figds := range []struct {
		fig int
		ds  workload.Dataset
	}{
		{7, workload.DatasetString},
		{8, workload.DatasetInteger},
	} {
		const peers, base = 5, 30
		for _, pct := range []int{1, 10} {
			for _, be := range []engine.Backend{engine.BackendHash, engine.BackendIndexed} {
				add(figds.fig, fmt.Sprintf("%dpct_%s", pct, backendBenchName(be)), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						sc, err := BuildScenario(goBenchChainConfig(peers, figds.ds), base, be)
						if err != nil {
							b.Fatal(err)
						}
						n := base * pct / 100
						if n < 1 {
							n = 1
						}
						var logs []core.EditLog
						for _, peer := range sc.W.PeerNames() {
							logs = append(logs, sc.W.GenInsertions(peer, n))
						}
						b.StartTimer()
						for _, log := range logs {
							if _, err := sc.View.ApplyEdits(context.Background(), log, core.DeleteProvenance); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
		}
	}

	// Figure 9: incremental deletion scale-up (1% and 10% loads, integer
	// and string datasets).
	{
		const peers, base = 5, 30
		for _, ds := range []workload.Dataset{workload.DatasetInteger, workload.DatasetString} {
			for _, pct := range []int{1, 10} {
				add(9, fmt.Sprintf("%dpct_%s", pct, ds), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						sc, err := BuildScenario(goBenchChainConfig(peers, ds), base, engine.BackendIndexed)
						if err != nil {
							b.Fatal(err)
						}
						n := base * pct / 100
						if n < 1 {
							n = 1
						}
						logs := goBenchDeletionLogs(sc.W, n)
						b.StartTimer()
						for _, log := range logs {
							if _, err := sc.View.ApplyEdits(context.Background(), log, core.DeleteProvenance); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
		}
	}

	// Figure 10: fixpoint computation as topology cycles are added,
	// reporting tuples at fixpoint as a metric.
	{
		const base = 30
		for cycles := 0; cycles <= 3; cycles++ {
			add(10, fmt.Sprintf("cycles%d", cycles), func(b *testing.B) {
				var tuples float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cfg := workload.Config{
						Peers:        5,
						Topology:     workload.TopologyRandom,
						AttrMode:     workload.AttrsNested,
						AvgNeighbors: 2,
						ExtraCycles:  cycles,
						Dataset:      workload.DatasetInteger,
						Seed:         goBenchSeed,
					}
					w, err := workload.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					logs := w.GenBase(base)
					v, err := core.NewView(w.Spec, "", core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for _, peer := range w.PeerNames() {
						if _, err := v.ApplyEdits(context.Background(), logs[peer], core.DeleteProvenance); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					tuples = float64(v.DB().TotalRows())
					b.StartTimer()
				}
				b.ReportMetric(tuples, "tuples")
			})
		}
	}

	// EvolveVsRebuild: spec evolution's incremental mapping removal
	// (provenance-driven rule deletion) against the teardown-and-
	// recompute alternative — a fresh view of the reduced spec replaying
	// the whole base. Fig. 5-style chain workload; the removed mapping is
	// the last chain hop, so the incremental path deletes only the final
	// peer's derivations while the rebuild recomputes every peer's.
	{
		const peers, base = 16, 150
		cfg := goBenchChainConfig(peers, workload.DatasetInteger)
		type evolveSetup struct {
			w       *workload.Workload
			logs    map[string]core.EditLog
			reduced *core.Spec
			view    *core.View // loaded under the full spec
		}
		setup := func(b *testing.B) *evolveSetup {
			w, err := workload.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			logs := w.GenBase(base)
			full := w.Spec
			removed := full.Mappings[len(full.Mappings)-1].ID
			var kept []*tgd.TGD
			for _, m := range full.Mappings {
				if m.ID != removed {
					kept = append(kept, m)
				}
			}
			reduced, err := core.NewSpec(full.Universe, kept, full.Policies)
			if err != nil {
				b.Fatal(err)
			}
			v, err := core.NewView(full, "", core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for _, peer := range w.PeerNames() {
				if _, err := v.ApplyEdits(context.Background(), logs[peer], core.DeleteProvenance); err != nil {
					b.Fatal(err)
				}
			}
			return &evolveSetup{w: w, logs: logs, reduced: reduced, view: v}
		}
		out = append(out, GoBench{Fig: 0, Name: "EvolveVsRebuild/incremental", Sub: "incremental", Run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := setup(b)
				b.StartTimer()
				if _, err := s.view.Evolve(context.Background(), s.reduced); err != nil {
					b.Fatal(err)
				}
			}
		}})
		out = append(out, GoBench{Fig: 0, Name: "EvolveVsRebuild/rebuild", Sub: "rebuild", Run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := setup(b)
				b.StartTimer()
				fresh, err := core.NewView(s.reduced, "", core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, peer := range s.w.PeerNames() {
					if _, err := fresh.ApplyEdits(context.Background(), s.logs[peer], core.DeleteProvenance); err != nil {
						b.Fatal(err)
					}
				}
			}
		}})
	}

	// Ablation: §5's composite mapping table against the per-RHS-atom
	// encoding on a multi-relation workload.
	{
		const peers, base = 4, 30
		cfg := workload.Config{
			Peers:          peers,
			MaxRelsPerPeer: 3,
			Topology:       workload.TopologyChain,
			AttrMode:       workload.AttrsRandom,
			Dataset:        workload.DatasetInteger,
			Seed:           goBenchSeed,
		}
		for _, split := range []bool{false, true} {
			name := "composite"
			if split {
				name = "split"
			}
			add(0, name, func(b *testing.B) {
				var provRows float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w, err := workload.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					logs := w.GenBase(base)
					v, err := core.NewView(w.Spec, "", core.Options{SplitProvTables: split})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for _, peer := range w.PeerNames() {
						if _, err := v.ApplyEdits(context.Background(), logs[peer], core.DeleteProvenance); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					provRows = 0
					for _, n := range v.DB().Names() {
						if len(n) > 2 && n[:2] == "p$" {
							provRows += float64(v.DB().Table(n).Len())
						}
					}
					b.StartTimer()
				}
				b.ReportMetric(provRows, "provrows")
			})
		}
	}

	return out
}
