package orchestra_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"orchestra"
)

// specConst reads the string constant name declared in the Go source
// file path, so the pinned specs are the texts the examples and tests
// really use.
func specConst(t *testing.T, path, name string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if id.Name != name || i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
			}
		}
	}
	t.Fatalf("%s: no string constant %s", path, name)
	return ""
}

// TestSpecFingerprintsPinned pins the fingerprint of every spec the
// repository ships or tests with. None of them has a string constant in
// a mapping or a trust condition spelled other than the renderer writes
// it, so quoting string constants and rendering conditions from their
// clauses must leave every one of these digests — and so every state
// directory checkpointed under them — unchanged.
func TestSpecFingerprintsPinned(t *testing.T) {
	// The digests were recorded before string constants were quoted.
	texts := []struct{ path, name, want string }{
		{"internal/spec/spec_test.go", "paperSpecText", "a0553998fc3f3391801226613f86f24c"},
		{"examples/durability/main.go", "cdss", "67a34ff6a3f712ad8c843ee7ab5eb116"},
		{"examples/evolution/main.go", "cdss", "fc119a7400989f94344c4c0871978c48"},
		{"examples/federation/main.go", "cdss", "67a34ff6a3f712ad8c843ee7ab5eb116"},
		{"examples/provexplorer/main.go", "cdss", "59becd8dc9cef3dfe0aacfa46c3dfd62"},
		{"examples/quickstart/main.go", "cdss", "67a34ff6a3f712ad8c843ee7ab5eb116"},
		{"cmd/orchestrad/daemon_test.go", "daemonTestSpec", "b859d0395192fea337afe898dd12d628"},
		{"cmd/orchestrad/main_test.go", "adminTestSpec", "b859d0395192fea337afe898dd12d628"},
	}
	for _, c := range texts {
		f, err := orchestra.ParseSpecString(specConst(t, c.path, c.name))
		if err != nil {
			t.Fatalf("%s %s: %v", c.path, c.name, err)
		}
		if got := f.Spec.Fingerprint(); got != c.want {
			t.Errorf("%s %s: fingerprint %s, want %s", c.path, c.name, got, c.want)
		}
	}
	// The chain and complete shapes are the repository benchmark's:
	// random attributes on a chain, shared ones on a complete graph
	// (random ones there are not weakly acyclic).
	workloads := []struct {
		dataset  orchestra.Dataset
		topology orchestra.Topology
		peers    int
		want     string
	}{
		{orchestra.DatasetInteger, orchestra.TopologyChain, 4, "cc7681d25f99ac754bf9da1566b92aac"},
		{orchestra.DatasetInteger, orchestra.TopologyChain, 16, "73ad205e57aa01cad86c36581dbdea22"},
		{orchestra.DatasetInteger, orchestra.TopologyComplete, 4, "e3e467438822498ebcc7bc8eba369fae"},
		{orchestra.DatasetInteger, orchestra.TopologyComplete, 16, "9d6bb82447dfeb1f5efc0ed307f623a5"},
		{orchestra.DatasetString, orchestra.TopologyChain, 4, "63c3e158a1a122d807abbed1c2c2a50e"},
		{orchestra.DatasetString, orchestra.TopologyChain, 16, "b38ac30caf118f32042a89d7a4d8a4b5"},
		{orchestra.DatasetString, orchestra.TopologyComplete, 4, "2f9fdeeb852f61ae4937f27f2241151d"},
		{orchestra.DatasetString, orchestra.TopologyComplete, 16, "4906e0779569bd2ab29eddd7e1dab30f"},
	}
	for _, c := range workloads {
		attrs := orchestra.AttrsRandom
		if c.topology == orchestra.TopologyComplete {
			attrs = orchestra.AttrsShared
		}
		w, err := orchestra.NewWorkload(orchestra.WorkloadConfig{
			Peers: c.peers, Dataset: c.dataset, Topology: c.topology, AttrMode: attrs, Seed: 20070923,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Spec.Fingerprint(); got != c.want {
			t.Errorf("workload %v %v %d peers: fingerprint %s, want %s", c.dataset, c.topology, c.peers, got, c.want)
		}
	}
}
