// Package rowintern guards the keyed-row discipline of the hot paths
// (PR 3): a tuple is canonically encoded exactly once, when it becomes
// a value.Row, and the key then travels with the tuple through storage,
// deltas, edit logs, and provenance refs. Inside the hot-path packages
// it flags constructions that re-encode, that build Rows whose key is
// not provably the tuple's encoding, or that decode a provenance ref's
// key back into the tuple it was encoded from.
package rowintern

import (
	"go/ast"

	"orchestra/internal/lint/analysis"
)

// Packages lists the hot-path packages the invariant governs.
var Packages = []string{
	"orchestra/internal/engine",
	"orchestra/internal/storage",
	"orchestra/internal/core",
}

const (
	rowType  = "orchestra/internal/value.Row"
	tupleKey = "(orchestra/internal/value.Tuple).Key"
	refTuple = "(orchestra/internal/provenance.Ref).Tuple"
)

// Analyzer is the rowintern pass.
var Analyzer = &analysis.Analyzer{
	Name: "rowintern",
	Doc: "hot paths must key tuples through value.NewRow/KeyedRow, not ad-hoc encoding\n\n" +
		"A value.Row literal can pair a tuple with a stale or foreign key, and\n" +
		"Tuple.Key() allocates a fresh string per call — both defeat the PR 3\n" +
		"interning that storage, deltas, and provenance refs rely on.\n" +
		"provenance.Ref.Tuple() decodes a key into a fresh tuple: a caller\n" +
		"that built the ref from a tuple should carry the tuple beside it.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				// value.Row{} is the zero value (map misses, slot
				// clearing), not a key construction.
				if len(n.Elts) == 0 {
					return true
				}
				if named := pass.NamedType(n); analysis.TypeName(named) == rowType {
					pass.Reportf(n.Pos(), "value.Row composite literal on a hot path; use value.NewRow (encode once) or value.KeyedRow (key already in hand) so Key provably matches Tuple")
				}
			case *ast.CallExpr:
				switch pass.CalleeName(n) {
				case tupleKey:
					pass.Reportf(n.Pos(), "Tuple.Key() allocates a fresh key string; on hot paths reuse the Row's interned key or EncodeKey into a scratch buffer")
				case refTuple:
					pass.Reportf(n.Pos(), "provenance.Ref.Tuple() decodes the key into a fresh tuple; on hot paths carry the tuple beside the ref")
				}
			}
			return true
		})
	}
	return nil
}

func inScope(path string) bool {
	for _, p := range Packages {
		if path == p {
			return true
		}
	}
	return false
}
