package orchestra

import (
	"fmt"
	"io"
	"strings"

	"orchestra/internal/benchharness"
	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/engine"
	"orchestra/internal/evolve"
	"orchestra/internal/spec"
	"orchestra/internal/statestore"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
	"orchestra/internal/value"
	"orchestra/internal/workload"
)

// The public vocabulary of the system. These aliases are the supported
// names for the engine's types: external modules cannot import the
// internal packages directly, but every value they need flows through
// this package.
type (
	// Spec is the static description of a CDSS: peers and their schemas,
	// the schema mappings, and each peer's trust policy.
	Spec = core.Spec
	// Edit is one entry of a peer's edit log: an insertion or deletion
	// of a tuple of one of the peer's own relations.
	Edit = core.Edit
	// EditLog is an ordered list of edits published together.
	EditLog = core.EditLog
	// Publication is one peer's published edit log as stored on a bus.
	Publication = core.Publication
	// ApplyStats reports the work done by one maintenance operation.
	ApplyStats = core.ApplyStats
	// EngineStats reports fixpoint-evaluation work.
	EngineStats = engine.Stats
	// QueryError is a structured query parse/validation failure carrying
	// the byte offset of the offending fragment (see its Detail method).
	QueryError = core.QueryError
	// Tuple is a row of constants and labeled nulls.
	Tuple = value.Tuple
	// Value is one column of a tuple.
	Value = value.Value
	// TrustPolicy is a peer's trust policy Θ (§3.3).
	TrustPolicy = trust.Policy
	// TrustPred is a selection predicate over column names.
	TrustPred = trust.Pred
	// SpecFile is a parsed .cdss file: a Spec plus edit declarations.
	SpecFile = spec.File
	// PeerEdit is one peer-attributed edit declaration of a spec file.
	PeerEdit = spec.PeerEdit
	// ViewState describes one view's durable checkpoint — its owner, the
	// bus cursor the snapshot reflects, and the snapshot generation (see
	// WithPersistence and System.PersistedViews).
	ViewState = statestore.ViewState
	// SpecDiff is an ordered sequence of spec-evolution operations (add
	// peer, add/remove mapping, trust changes); apply one to a running
	// System with ApplyDiff.
	SpecDiff = evolve.Diff
	// SpecOp is one spec-evolution operation of a SpecDiff.
	SpecOp = evolve.Op
)

// Ins builds an insertion edit.
func Ins(rel string, t Tuple) Edit { return core.Ins(rel, t) }

// Del builds a deletion edit.
func Del(rel string, t Tuple) Edit { return core.Del(rel, t) }

// MakeTuple builds a tuple from Go ints, strings, and Values.
func MakeTuple(vals ...any) Tuple { return core.MakeTuple(vals...) }

// ParseTuple parses a comma-separated constant tuple, e.g. "3,2" or
// "3,'x'".
func ParseTuple(text string) (Tuple, error) {
	var t Tuple
	for _, tok := range strings.Split(text, ",") {
		term, err := tgd.ParseTerm(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		if term.Kind != datalog.TermConst {
			return nil, fmt.Errorf("orchestra: tuple component %q is not a constant", tok)
		}
		t = append(t, term.Const)
	}
	return t, nil
}

// ParseSpec parses a .cdss spec file (peers, relations, mappings, trust
// declarations, and edits). The format is documented in internal/spec.
func ParseSpec(r io.Reader) (*SpecFile, error) { return spec.Parse(r) }

// ParseSpecString is ParseSpec over a string.
func ParseSpecString(s string) (*SpecFile, error) { return spec.ParseString(s) }

// RenderSpec renders a spec file back into the .cdss format.
func RenderSpec(f *SpecFile) string { return spec.Render(f) }

// ParseSpecDiff parses a spec-diff file: evolution operations (one per
// line; peer blocks may span lines) in the syntax of internal/evolve —
// "add peer P { relation R(...) }", "add mapping mX: ...",
// "remove mapping mX", "trust <directive>", "untrust P".
func ParseSpecDiff(r io.Reader) (*SpecDiff, error) { return evolve.Parse(r) }

// ParseSpecDiffString is ParseSpecDiff over a string.
func ParseSpecDiffString(s string) (*SpecDiff, error) { return evolve.ParseString(s) }

// RenderSpecDiff renders a diff back into the parseable diff-file
// syntax.
func RenderSpecDiff(d *SpecDiff) string { return d.String() }

// DiffSpecs computes the evolution operations rewriting one spec into
// another (removals, then new peers, added mappings, and trust
// replacements). Peer removal and schema alteration are unsupported and
// reported as errors.
func DiffSpecs(old, new *Spec) (*SpecDiff, error) { return evolve.DiffSpecs(old, new) }

// EvolveSpec applies a diff to a spec without a running System,
// validating every intermediate spec (well-formedness, ownership, weak
// acyclicity). The input spec is not mutated. Use System.ApplyDiff to
// evolve live state along with the spec.
func EvolveSpec(sp *Spec, d *SpecDiff) (*Spec, error) { return evolve.Apply(sp, d) }

// NewTrustPolicy creates an empty (trust-all) policy for a peer; refine
// it with DistrustPeer / TrustMapping / DistrustMapping / DistrustBase
// and install it via WithTrustFor.
func NewTrustPolicy(owner string) *TrustPolicy { return trust.NewPolicy(owner) }

// ParseTrustPred parses a trust selection predicate such as
// "x >= 3 and y != 5".
func ParseTrustPred(s string) (*TrustPred, error) { return trust.ParsePred(s) }

// Workload generation (§6.1's synthetic methodology).
type (
	// Workload is a generated synthetic confederation plus edit streams.
	Workload = workload.Workload
	// WorkloadConfig parameterizes workload generation.
	WorkloadConfig = workload.Config
	// Topology selects the mapping graph shape.
	Topology = workload.Topology
	// Dataset selects the value universe.
	Dataset = workload.Dataset
	// AttrMode selects how attributes are shared across peers.
	AttrMode = workload.AttrMode
)

// Workload topologies, datasets, and attribute modes.
const (
	TopologyChain    = workload.TopologyChain
	TopologyComplete = workload.TopologyComplete
	TopologyRandom   = workload.TopologyRandom
	DatasetInteger   = workload.DatasetInteger
	DatasetString    = workload.DatasetString
	AttrsRandom      = workload.AttrsRandom
	AttrsShared      = workload.AttrsShared
	AttrsNested      = workload.AttrsNested
)

// NewWorkload generates a synthetic confederation per §6.1.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) { return workload.New(cfg) }

// Benchmark harness (the paper's §6 figures).
type (
	// BenchConfig parameterizes figure regeneration.
	BenchConfig = benchharness.Config
	// BenchTable is one rendered figure.
	BenchTable = benchharness.Table
)

// BenchFigures maps figure number (4–10) to its runner.
var BenchFigures = benchharness.Figures
