package evolve

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/spec"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
	"orchestra/internal/workload"
)

// litPieces is the alphabet generated string constants are drawn from:
// space runs, both quote kinds, a backslash, the comment character,
// punctuation, operators and the text formats' keywords.
var litPieces = []string{" ", "   ", `"`, "'", `\`, "#", ",", "(", ")", "->", ":-",
	"=", "<=", "!=", "<>", "where", "and", "when", "exists", "x", "Z"}

func genLiteral(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(5); n >= 0; n-- {
		b.WriteString(litPieces[rng.Intn(len(litPieces))])
	}
	return b.String()
}

// genPred spells a condition over vars, unevenly spaced, with string
// constants single- or double-quoted.
func genPred(rng *rand.Rand, vars []string) string {
	ops := []string{"=", "==", "!=", "<>", "<", "<=", ">", ">="}
	var parts []string
	for i := rng.Intn(2); i >= 0; i-- {
		rhs := strconv.Itoa(rng.Intn(1000))
		if lit := genLiteral(rng); rng.Intn(2) == 0 {
			rhs = strconv.Quote(lit)
			if !strings.Contains(lit, "'") && rng.Intn(2) == 0 {
				rhs = "'" + lit + "'"
			}
		}
		space := []string{"", " ", "  "}[rng.Intn(3)]
		parts = append(parts, vars[rng.Intn(len(vars))]+space+ops[rng.Intn(len(ops))]+space+rhs)
	}
	return strings.Join(parts, []string{" and ", " AND "}[rng.Intn(2)])
}

// genOps generates spec-evolution operations of the kinds the evolution
// equivalence scenario generates — new peers, mappings with existentials,
// removals, replaced and accumulated trust — over sp, with string
// constants in mappings and trust conditions. Each op is validated the
// way ApplyDiff validates it; rejected candidates are skipped.
func genOps(t *testing.T, rng *rand.Rand, sp *core.Spec) []Op {
	var ops []Op
	queue := func(op Op) {
		if next, err := ApplyOp(sp, op); err == nil {
			sp, ops = next, append(ops, op)
		}
	}
	for i := 0; i < 12; i++ {
		rels := sp.Universe.Relations()
		peers := sp.Universe.Peers()
		peer := peers[rng.Intn(len(peers))].Name
		switch rng.Intn(5) {
		case 0:
			p, err := spec.ParsePeerDecl(fmt.Sprintf("PZ%d { relation Z%d(a int, b string) }", i, i))
			if err != nil {
				t.Fatal(err)
			}
			queue(Op{Kind: OpAddPeer, Peer: p})
		case 1:
			src, dst := rels[rng.Intn(len(rels))], rels[rng.Intn(len(rels))]
			args := make([]string, src.Arity())
			for j := range args {
				args[j] = fmt.Sprintf("v%d", j)
			}
			dstArgs := make([]string, dst.Arity())
			for j := range dstArgs {
				dstArgs[j] = fmt.Sprintf("e%d", j)
				if j < len(args) {
					dstArgs[j] = args[j]
				}
			}
			args[rng.Intn(len(args))] = strconv.Quote(genLiteral(rng))
			m, err := tgd.Parse(fmt.Sprintf("x%d: %s(%s) -> %s(%s)", i, src.Name, strings.Join(args, ","), dst.Name, strings.Join(dstArgs, ",")))
			if err != nil {
				t.Fatal(err)
			}
			queue(Op{Kind: OpAddMapping, Mapping: m})
		case 2:
			if len(sp.Mappings) > 0 {
				queue(Op{Kind: OpRemoveMapping, MappingID: sp.Mappings[rng.Intn(len(sp.Mappings))].ID})
			}
		case 3:
			pol := trust.NewPolicy(peer)
			if len(sp.Mappings) > 0 {
				m := sp.Mappings[rng.Intn(len(sp.Mappings))]
				if vars := m.LHSVars(); len(vars) > 0 {
					pol.DistrustMapping(m.ID, trust.MustParsePred(genPred(rng, vars)))
				}
			}
			pol.DistrustPeer(peers[rng.Intn(len(peers))].Name)
			queue(Op{Kind: OpSetTrust, TrustPeer: peer, Policy: pol})
		default:
			rel := rels[rng.Intn(len(rels))]
			cols := make([]string, len(rel.Cols))
			for j, c := range rel.Cols {
				cols[j] = c.Name
			}
			queue(Op{Kind: OpTrustDirective, Directive: fmt.Sprintf("%s  distrusts base %s when %s", peer, rel.Name, genPred(rng, cols))})
		}
	}
	return ops
}

// programs renders the compiled program of the global view and of each
// peer's view of sp: the rules every mapping and trust condition
// compiles to.
func programs(t *testing.T, sp *core.Spec) []string {
	owners := []string{""}
	for _, p := range sp.Universe.Peers() {
		owners = append(owners, p.Name)
	}
	out := make([]string, len(owners))
	for i, owner := range owners {
		v, err := core.NewView(sp, owner, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v.Program().String()
	}
	return out
}

// TestSpecDiffRenderParse checks render∘parse on generated specs and
// diffs whose mappings and trust conditions carry string constants from
// an alphabet of the formats' own punctuation and keywords. A parsed
// spec or diff, rendered and parsed again, is equal in structure to the
// first parse and renders to the same text; and the rendered spec, or
// the spec the rendered diff evolves to, compiles to the same rules.
func TestSpecDiffRenderParse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(1); seed <= 4; seed++ {
		w, err := workload.New(workload.Config{
			Peers: 3, Topology: workload.TopologyChain, AttrMode: workload.AttrsShared,
			Dataset: workload.Dataset(seed % 2), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := &Diff{Ops: genOps(t, rng, w.Spec)}
		want, err := Apply(w.Spec, d)
		if err != nil {
			t.Fatal(err)
		}

		// The diff: render, parse, and render∘parse again.
		parsed, err := ParseString(d.String())
		if err != nil {
			t.Fatalf("seed %d: rendered diff does not parse: %v\n%s", seed, err, d)
		}
		again, err := ParseString(parsed.String())
		if err != nil || !reflect.DeepEqual(again.Ops, parsed.Ops) || again.String() != parsed.String() {
			t.Fatalf("seed %d: diff does not round-trip (%v):\n%s", seed, err, parsed)
		}
		got, err := Apply(w.Spec, parsed)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() || !reflect.DeepEqual(programs(t, got), programs(t, want)) {
			t.Fatalf("seed %d: the rendered diff evolves to a different spec:\n%s", seed, parsed)
		}

		// The evolved spec, with string edits: render, parse, and
		// render∘parse again.
		f := &spec.File{Spec: want}
		for _, peer := range w.PeerNames() {
			for _, e := range w.GenInsertions(peer, 2) {
				f.Edits = append(f.Edits, spec.PeerEdit{Peer: peer, Edit: e})
			}
		}
		first, err := spec.ParseString(spec.Render(f))
		if err != nil {
			t.Fatalf("seed %d: rendered spec does not parse: %v\n%s", seed, err, spec.Render(f))
		}
		text := spec.Render(first)
		second, err := spec.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(second.Spec.Mappings, first.Spec.Mappings) || !reflect.DeepEqual(second.Spec.Policies, first.Spec.Policies) ||
			!reflect.DeepEqual(second.Edits, first.Edits) || !reflect.DeepEqual(f.Edits, first.Edits) || spec.Render(second) != text {
			t.Fatalf("seed %d: spec does not round-trip:\n%s", seed, text)
		}
		if first.Spec.Fingerprint() != want.Fingerprint() || !reflect.DeepEqual(programs(t, first.Spec), programs(t, want)) {
			t.Fatalf("seed %d: the rendered spec compiles differently:\n%s", seed, text)
		}
	}
}
