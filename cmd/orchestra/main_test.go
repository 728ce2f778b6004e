package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSpec = `
peer PGUS    { relation G(id int, can int, nam int) }
peer PBioSQL { relation B(id int, nam int) }
peer PuBio   { relation U(nam int, can int) }

mapping m1: G(i,c,n) -> B(i,n)
mapping m2: G(i,c,n) -> U(n,c)
mapping m3: B(i,n) -> exists c . U(n,c)
mapping m4: B(i,c), U(n,c) -> B(i,n)

edit PGUS    + G(1,2,3)
edit PGUS    + G(3,5,2)
edit PBioSQL + B(3,5)
edit PuBio   + U(2,5)
`

func writeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "taxa.cdss")
	if err := os.WriteFile(path, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCommands(t *testing.T) {
	path := writeSpec(t)
	cases := [][]string{
		{"show", path},
		{"run", path},
		{"run", "-owner", "PBioSQL", path},
		{"query", "-q", "ans(x,y) :- U(x,y)", path},
		{"query", "-nulls", "-q", "ans(x,y) :- U(x,y)", path},
		{"prov", "-rel", "B", "-tuple", "3,2", path},
		{"graph", path},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("orchestra %v: %v", args, err)
		}
	}
}

func TestRunSaveLoad(t *testing.T) {
	path := writeSpec(t)
	state := filepath.Join(t.TempDir(), "state.orc")
	if err := run([]string{"run", "-save", state, path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatal("state file not written")
	}
	if err := run([]string{"query", "-load", state, "-q", "ans(x,y) :- U(x,y)", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunDurableState runs the CLI twice against one -state directory:
// the first run seeds the durable bus from the spec's edits and
// checkpoints; the second recovers instead of republishing, and both
// print identical instances.
func TestRunDurableState(t *testing.T) {
	path := writeSpec(t)
	state := filepath.Join(t.TempDir(), "state")

	var first, second strings.Builder
	if err := run([]string{"run", "-state", state, path}, &first); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(state, "MANIFEST.json")); err != nil {
		t.Fatal("no manifest after first run:", err)
	}
	if _, err := os.Stat(filepath.Join(state, "bus.shards")); err != nil {
		t.Fatal("no durable bus shards after first run:", err)
	}
	if err := run([]string{"run", "-state", state, path}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("recovered run diverged:\n-- first --\n%s\n-- second --\n%s", first.String(), second.String())
	}
	// Queries and provenance work off the recovered state too.
	if err := run([]string{"query", "-state", state, "-q", "ans(x,y) :- U(x,y)", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"prov", "-state", state, "-rel", "B", "-tuple", "3,2", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeSpec(t)
	cases := [][]string{
		{},                              // no command
		{"bogus", path},                 // unknown command
		{"run"},                         // missing spec
		{"run", "/does/not/exist.cdss"}, // missing file
		{"query", path},                 // missing -q
		{"prov", path},                  // missing -rel/-tuple
		{"prov", "-rel", "B", "-tuple", "x", path}, // non-constant tuple
		{"run", "-load", "/does/not/exist.orc", path},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("orchestra %v succeeded, want error", args)
		}
	}
	// The deletion strategy is not a runtime choice: every peer runs the
	// paper's provenance-driven algorithm (DRed and recomputation are
	// Figure 4 baselines in cmd/benchfig).
	err := run([]string{"run", "-strategy", "dred", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -strategy") {
		t.Errorf("orchestra run -strategy dred: err = %v, want undefined flag", err)
	}
}

func TestEvolveCommand(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "taxa.cdss")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	diffPath := filepath.Join(dir, "changes.cdssd")
	diffText := `
add peer PRef { relation C(nam int, cls int) }
add mapping m5: U(n,c) -> C(n,n)
remove mapping m4
trust PBioSQL distrusts mapping m1 when n >= 3
`
	if err := os.WriteFile(diffPath, []byte(diffText), 0o644); err != nil {
		t.Fatal(err)
	}
	stateDir := filepath.Join(dir, "state")
	evolvedPath := filepath.Join(dir, "evolved.cdss")

	// Materialize durable state under the original spec.
	var sb strings.Builder
	if err := run([]string{"run", "-state", stateDir, specPath}, &sb); err != nil {
		t.Fatal(err)
	}

	// Missing flags are rejected.
	if err := run([]string{"evolve", specPath}, io.Discard); err == nil {
		t.Fatal("evolve without -state/-diff succeeded")
	}

	// Apply the diff.
	sb.Reset()
	if err := run([]string{"evolve", "-state", stateDir, "-diff", diffPath, "-o", evolvedPath, specPath}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "applied 4 operations") {
		t.Fatalf("unexpected evolve output: %s", sb.String())
	}
	evolved, err := os.ReadFile(evolvedPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"peer PRef", "mapping m5", "distrusts mapping m1"} {
		if !strings.Contains(string(evolved), want) {
			t.Fatalf("evolved spec missing %q:\n%s", want, evolved)
		}
	}
	if strings.Contains(string(evolved), "mapping m4:") {
		t.Fatalf("evolved spec still has m4:\n%s", evolved)
	}

	// The stale spec file is rejected against the evolved directory…
	if err := run([]string{"run", "-state", stateDir, specPath}, io.Discard); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("stale spec not rejected: %v", err)
	}
	// …while the evolved one recovers and serves the new relation.
	sb.Reset()
	if err := run([]string{"run", "-state", stateDir, evolvedPath}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "C (") {
		t.Fatalf("evolved run does not show relation C:\n%s", sb.String())
	}
}

func TestStatsExplain(t *testing.T) {
	path := writeSpec(t)
	var b strings.Builder
	if err := run([]string{"stats", "-explain", "ans(i,n) :- G(i,c,m), B(i,n)", path}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"cost-based", "estimated results", "probe"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	// A structured query error points at the offending fragment.
	err := run([]string{"stats", "-explain", "ans(i,n) :- Zed(i,n)", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "^") {
		t.Fatalf("bad query error lacks caret: %v", err)
	}
	// -explain still requires a spec file.
	if err := run([]string{"stats", "-explain", "ans(i) :- B(i,n)"}, io.Discard); err == nil {
		t.Fatal("stats -explain without spec accepted")
	}
}
