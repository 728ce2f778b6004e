// Command bench is the repository's benchmark: four workloads over the
// public orchestra API, measured end to end, checked against a serial
// oracle, and — with -trace 1 — re-measured layer by layer from outside
// the layers. See README.md for the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// report is the full output of one invocation.
type report struct {
	Machine machine  `json:"machine"`
	Trace   bool     `json:"trace"`
	Quick   bool     `json:"quick,omitempty"`
	Results []result `json:"results"`
}

// machine records the facts a reader needs before comparing numbers.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Dir        string `json:"dir"`
	Filesystem string `json:"filesystem"`
}

// contractLine is the last line of standard output for a one-workload
// run: the keys the benchmark driver reads, nothing else.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload and end standard output with its result line (default: all four)")
		seed    = fs.Int64("seed", 1, "workload data seed; 1 is for development, claims must also hold on 2")
		seconds = fs.Float64("seconds", 15, "measured seconds per workload")
		trace   = fs.Int("trace", 0, "1 re-runs each workload stepped, layer by layer, and reports the per-layer metrics")
		quick   = fs.Bool("quick", false, "smoke mode: every workload at about a hundredth of its size")
		out     = fs.String("out", "", "write the full report to this file instead of standard output")
		dir     = fs.String("dir", "", "directory for state directories (default: a fresh temporary directory)")
		traces  = fs.String("traces", "bench/out", "directory for the span files of -trace 1")
		compare = fs.Bool("compare", false, "compare two reports: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	// One process generates the load and is the system under test; it
	// gets at most four processors so results from bigger machines stay
	// comparable with the two-core box the bounds were set on.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		selected = []workload{*w}
	}
	if *quick {
		*seconds = min(*seconds, 0.2)
	}
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "orchestra-bench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	} else if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	rep := report{Trace: *trace != 0, Quick: *quick, Machine: machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH, Dir: *dir, Filesystem: fsType(*dir),
	}}
	ctx := context.Background()
	o := runOptions{seed: *seed, seconds: *seconds, quick: *quick, dir: *dir, traces: *traces}
	for i := range selected {
		w := &selected[i]
		fmt.Fprintf(os.Stderr, "bench: %s (seed %d, %gs, trace %d)\n", w.name, *seed, *seconds, *trace)
		if rep.Trace {
			rep.Results = append(rep.Results, w.runTraced(ctx, o))
		} else {
			rep.Results = append(rep.Results, w.runEndToEnd(ctx, o))
		}
	}

	if err := writeReport(rep, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	for _, r := range rep.Results {
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed: %s\n", r.Workload, r.Failed, r.Attempted, r.Error)
			code = 1
		}
	}
	if *name != "" {
		r := rep.Results[0]
		line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractValue{}}
		for k, m := range r.Metrics {
			line.Metrics[k] = contractValue{m.Value, m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(b))
	}
	return code
}

func writeReport(rep report, path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
