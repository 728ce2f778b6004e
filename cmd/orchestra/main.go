// Command orchestra runs CDSS update exchange over a spec file and lets
// you inspect instances, provenance, and trust — the CLI face of the
// Orchestra reproduction, built entirely on the public orchestra API.
//
// Usage:
//
//	orchestra run   [-owner peer] [-state dir] spec.cdss
//	orchestra query [-owner peer] [-nulls] -q "ans(x,y) :- U(x,y)" spec.cdss
//	orchestra prov  [-owner peer] -rel U -tuple "2,5" spec.cdss
//	orchestra graph [-owner peer] spec.cdss           # provenance graph in DOT
//	orchestra show  spec.cdss                          # parsed spec summary
//	orchestra evolve -state dir -diff changes.cdssd [-o evolved.cdss] spec.cdss
//	orchestra stats -state dir                         # offline state-dir dashboard
//	orchestra stats -url http://host:port              # scrape a running orchestrad
//	orchestra stats -explain "ans(x,y) :- U(x,y)" [-owner peer] spec.cdss   # query plan
//	orchestra trace -pub <trace-id> -url http://a,http://b [-token T]       # publication lineage
//
// With -state, the system runs durably out of the given directory
// (view snapshots plus a publication log): the first run seeds the bus
// from the spec file's edits, later runs recover the checkpointed view
// and replay only what it has not yet seen.
//
// evolve applies a spec-diff file to a durable state directory: the
// recovered views are incrementally repaired under the evolved spec
// (added mappings seed a fixpoint round, removed mappings delete their
// derivations via provenance), re-checkpointed, and the evolved spec is
// written to -o (default stdout) — use it as the spec file of later
// runs; the old spec file is rejected against the evolved directory.
//
// The spec format is documented in internal/spec; the diff format in
// internal/evolve (add peer / add mapping / remove mapping / trust /
// untrust directives).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"orchestra"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "orchestra:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: orchestra <run|query|prov|graph|show|evolve|stats|trace> [flags] [spec.cdss]")
	}
	cmd, rest := args[0], args[1:]
	ctx := context.Background()

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	owner := fs.String("owner", "", "peer whose view (and trust policy) to use; empty = global trust-all view")
	q := fs.String("q", "", "conjunctive query, e.g. 'ans(x,y) :- U(x,y)'")
	nulls := fs.Bool("nulls", false, "include tuples with labeled nulls (superset of certain answers)")
	rel := fs.String("rel", "", "relation name for prov")
	tupleText := fs.String("tuple", "", "comma-separated tuple for prov, e.g. \"3,2\"")
	saveFile := fs.String("save", "", "write the view state to this file after processing")
	loadFile := fs.String("load", "", "restore view state from this file instead of replaying the spec's edits")
	stateDir := fs.String("state", "", "durable state directory (snapshots + publication log); reuse it across runs to recover instead of replaying")
	diffFile := fs.String("diff", "", "spec-diff file for evolve")
	outFile := fs.String("o", "", "where evolve writes the evolved spec (default stdout)")
	urlStr := fs.String("url", "", "base URL of a running orchestrad for stats (trace accepts a comma-separated list), e.g. http://localhost:7117")
	explainQ := fs.String("explain", "", "stats: render the physical query plan (join order, access paths, estimates) for this query instead of the dashboard; takes a spec file")
	pubID := fs.String("pub", "", "trace: the publication's trace id (printed by smokepub, logged by orchestrad, returned by /publish)")
	token := fs.String("token", "", "admin bearer token for trace's /debug/trace requests")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	// trace talks to running daemons only: no spec file involved.
	if cmd == "trace" {
		if fs.NArg() != 0 {
			return fmt.Errorf("trace takes no spec file (use -pub and -url)")
		}
		var urls []string
		for _, u := range strings.Split(*urlStr, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		return traceCmd(*pubID, urls, *token, out)
	}
	// stats inspects a state directory or a daemon — except -explain,
	// which compiles a query against a spec file's materialized view.
	if cmd == "stats" {
		if *explainQ != "" {
			if fs.NArg() != 1 {
				return fmt.Errorf("stats -explain expects exactly one spec file")
			}
			return explainCmd(ctx, fs.Arg(0), *explainQ, *owner, *stateDir, out)
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("stats takes no spec file (use -state or -url)")
		}
		return statsCmd(*stateDir, *urlStr, out)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one spec file")
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	parsed, perr := orchestra.ParseSpec(f)
	f.Close()
	if perr != nil {
		return perr
	}

	if cmd == "show" {
		return show(parsed, out)
	}
	if cmd == "evolve" {
		return evolveCmd(ctx, parsed, *stateDir, *diffFile, *outFile, out)
	}

	var sysOpts []orchestra.Option
	if *stateDir != "" {
		sysOpts = append(sysOpts, orchestra.WithPersistence(*stateDir))
	}
	sys, err := orchestra.New(parsed.Spec, sysOpts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	if *loadFile != "" {
		f, err := os.Open(*loadFile)
		if err != nil {
			return err
		}
		err = sys.RestoreSnapshot(*owner, f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		// Replay the file's edits in publication order, one publication
		// per peer-contiguous run, then exchange into the owner's view.
		// With -state the durable bus may already hold some or all of the
		// file's publications from an earlier (possibly interrupted) run;
		// SeedFileEdits publishes only the missing tail.
		if *stateDir != "" {
			if _, err := sys.SeedFileEdits(ctx, parsed); err != nil {
				return err
			}
		} else if err := sys.PublishFileEdits(ctx, parsed); err != nil {
			return err
		}
		if _, err := sys.Exchange(ctx, *owner); err != nil {
			return err
		}
	}
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			return err
		}
		if err := sys.WriteSnapshot(*owner, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	switch cmd {
	case "run":
		return dumpInstances(sys, *owner, out)
	case "query":
		if *q == "" {
			return fmt.Errorf("query requires -q")
		}
		rows, err := sys.Query(ctx, *owner, *q, *nulls)
		if err != nil {
			return queryErrDetail(err)
		}
		for _, row := range rows {
			desc, err := sys.Describe(*owner, row)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, desc)
		}
		return nil
	case "prov":
		if *rel == "" || *tupleText == "" {
			return fmt.Errorf("prov requires -rel and -tuple")
		}
		t, err := orchestra.ParseTuple(*tupleText)
		if err != nil {
			return err
		}
		expr, err := sys.ProvenanceExpr(*owner, *rel, t)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Pv(%s%s) = %s\n", *rel, t, expr)
		return nil
	case "graph":
		dot, err := sys.GraphDot(*owner)
		if err != nil {
			return err
		}
		fmt.Fprint(out, dot)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// queryErrDetail rewraps a structured QueryError with its caret
// rendering so the CLI points at the offending fragment.
func queryErrDetail(err error) error {
	var qe *orchestra.QueryError
	if errors.As(err, &qe) {
		return fmt.Errorf("invalid query: %s", qe.Detail())
	}
	return err
}

// explainCmd materializes the owner's view from a spec file (durably
// when -state is given) and prints the physical plan the read path
// would use for the query, without evaluating it.
func explainCmd(ctx context.Context, specPath, q, owner, stateDir string, out io.Writer) error {
	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	parsed, perr := orchestra.ParseSpec(f)
	f.Close()
	if perr != nil {
		return perr
	}
	var sysOpts []orchestra.Option
	if stateDir != "" {
		sysOpts = append(sysOpts, orchestra.WithPersistence(stateDir))
	}
	sys, err := orchestra.New(parsed.Spec, sysOpts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	// Populate the instances first so the plan reflects real statistics.
	if stateDir != "" {
		if _, err := sys.SeedFileEdits(ctx, parsed); err != nil {
			return err
		}
	} else if err := sys.PublishFileEdits(ctx, parsed); err != nil {
		return err
	}
	if _, err := sys.Exchange(ctx, owner); err != nil {
		return err
	}
	plan, err := sys.ExplainQuery(ctx, owner, q)
	if err != nil {
		return queryErrDetail(err)
	}
	fmt.Fprint(out, plan)
	return nil
}

// evolveCmd applies a spec-diff file to a durable state directory and
// emits the evolved spec.
func evolveCmd(ctx context.Context, parsed *orchestra.SpecFile, stateDir, diffFile, outFile string, out io.Writer) error {
	if stateDir == "" || diffFile == "" {
		return fmt.Errorf("evolve requires -state and -diff")
	}
	df, err := os.Open(diffFile)
	if err != nil {
		return err
	}
	diff, perr := orchestra.ParseSpecDiff(df)
	df.Close()
	if perr != nil {
		return perr
	}

	sys, err := orchestra.New(parsed.Spec, orchestra.WithPersistence(stateDir))
	if err != nil {
		return err
	}
	defer sys.Close()
	// A fresh directory first seeds the bus from the spec file's edits,
	// so the evolved confederation and a from-scratch one agree on the
	// publication history.
	if _, err := sys.SeedFileEdits(ctx, parsed); err != nil {
		return err
	}
	if err := sys.ApplyDiff(ctx, diff); err != nil {
		return err
	}

	evolved := &orchestra.SpecFile{Spec: sys.Spec(), Edits: parsed.Edits}
	rendered := orchestra.RenderSpec(evolved)
	if outFile != "" {
		if err := os.WriteFile(outFile, []byte(rendered), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "applied %d operations (spec generation %d); evolved spec written to %s\n",
			len(diff.Ops), sys.SpecGeneration(), outFile)
		return nil
	}
	fmt.Fprint(out, rendered)
	return nil
}

func show(parsed *orchestra.SpecFile, out io.Writer) error {
	u := parsed.Spec.Universe
	for _, p := range u.Peers() {
		fmt.Fprintf(out, "peer %s\n", p.Name)
		for _, r := range p.Schema.Relations() {
			fmt.Fprintf(out, "  %s\n", r)
		}
	}
	for _, m := range parsed.Spec.Mappings {
		fmt.Fprintf(out, "mapping %s\n", m)
	}
	for _, p := range u.Peers() {
		if pol := parsed.Spec.Policy(p.Name); pol != nil {
			fmt.Fprint(out, pol.Describe())
		}
	}
	fmt.Fprintf(out, "%d edits\n", len(parsed.Edits))
	return nil
}

func dumpInstances(sys *orchestra.System, owner string, out io.Writer) error {
	for _, rel := range sys.RelationNames() {
		descs, err := sys.DescribeInstance(owner, rel)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s (%d rows)\n", rel, len(descs))
		for _, desc := range descs {
			fmt.Fprintf(out, "  %s\n", desc)
		}
	}
	return nil
}
