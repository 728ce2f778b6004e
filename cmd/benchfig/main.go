// Command benchfig regenerates the paper's evaluation figures (§6,
// Figures 4–10) as text tables, including the baselines the paper
// compares against: DRed and full recomputation (Figure 4) and the
// DB2-style hash backend beside the Tukwila-style indexed one (Figures
// 5, 7, 8). Performance claims about this repository are made with the
// repository benchmark instead (bench/README.md).
//
// Usage:
//
//	benchfig                 # all figures at laptop scale
//	benchfig -fig 4          # one figure
//	benchfig -scale 5        # 5× larger base data
//	benchfig -seed 7 -out figs.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"orchestra"
)

func main() {
	fig := flag.Int("fig", 0, "figure number (4-10); 0 = all")
	scale := flag.Float64("scale", 1, "base-data scale factor (1 = laptop defaults)")
	seed := flag.Int64("seed", 42, "workload seed")
	out := flag.String("out", "", "write output to this file instead of stdout")
	flag.Parse()

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		dst = f
	}

	cfg := orchestra.BenchConfig{Scale: *scale, Seed: *seed}
	var figs []int
	if *fig != 0 {
		figs = []int{*fig}
	} else {
		for n := range orchestra.BenchFigures {
			figs = append(figs, n)
		}
		sort.Ints(figs)
	}
	for _, n := range figs {
		runner, ok := orchestra.BenchFigures[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchfig: no figure %d (have 4-10)\n", n)
			os.Exit(1)
		}
		table, err := runner(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: figure %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Fprintln(dst, table.Render())
	}
}
