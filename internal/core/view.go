package core

import (
	"fmt"
	"strings"

	"orchestra/internal/datalog"
	"orchestra/internal/engine"
	"orchestra/internal/obs"
	"orchestra/internal/provenance"
	"orchestra/internal/storage"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
	"orchestra/internal/value"
)

// Options configures a View.
type Options struct {
	// Backend selects the physical engine (§5's DB2-style hash backend or
	// Tukwila-style indexed backend).
	Backend engine.Backend
	// MaxIterations bounds fixpoint loops (0 = engine default).
	MaxIterations int
	// Parallelism bounds the worker pool evaluating the rules of one
	// semi-naive round concurrently (0 = GOMAXPROCS, 1 = sequential).
	// Results are identical at every setting; see engine.Options.
	Parallelism int
	// ExchangeParallelism bounds CDSS.ExchangeAll's concurrent per-view
	// exchange passes (0 = GOMAXPROCS, 1 = serial). Distinct from
	// Parallelism, which bounds the engine workers inside one view's
	// fixpoint; views ignore this field. The public facade's equivalent
	// is WithExchangeParallelism.
	ExchangeParallelism int
	// SplitProvTables reverts §5's composite-mapping-table optimization:
	// one provenance table per RHS atom instead of one per tgd. Semantics
	// are identical; the ablation benchmarks measure the cost.
	SplitProvTables bool
	// QueryCacheSize caps the view's LRU query-result cache: 0 means the
	// default capacity, negative disables caching entirely. Cached
	// results are invalidated per relation through table generation
	// counters (see querycache.go), so a maintenance pass only evicts
	// queries whose body it actually touched.
	QueryCacheSize int
	// LegacyQueryPlanner reverts query-time plans to the maintenance
	// engine's fixed join order (no statistics, no warm-index pickup).
	// It exists as the baseline for the plan-equivalence property test;
	// leave it false in production.
	LegacyQueryPlanner bool
}

// View is one peer's materialized view of the whole CDSS: its own copies
// of every peer's internal relations and provenance tables, computed
// under the view owner's trust policy (§4: peers keep all data and
// metadata local "to prevent others from snooping on their queries").
// The empty owner "" is the global trust-all view used by the
// experiments.
type View struct {
	spec  *Spec
	owner string
	opts  Options

	db   *storage.Database
	sk   *value.SkolemTable
	prog *datalog.Program
	ev   *engine.Evaluator

	infos []*provenance.MappingInfo
	graph *provenance.Graph

	// derivability-test scratch engine, built lazily (§4.1.3).
	chkDB *storage.Database
	chkEv *engine.Evaluator

	// inv is the lazily-built declarative inverse-rule program (§4.1.3).
	inv *inverseState

	// dirty marks derived state as possibly inconsistent with the base
	// tables: a maintenance operation started but did not finish (e.g.
	// its propagation fixpoint was cancelled). Base edits commit before
	// any cancellable point, so the next operation repairs by full
	// recomputation from the base tables.
	dirty bool

	// bySourceRel indexes (mapping, source-template) pairs by source
	// relation, for the deletion cascade.
	bySourceRel map[string][]mappingSource
	// byTargetRel indexes (mapping, target-template) pairs by target
	// relation, for support checks.
	byTargetRel map[string][]mappingTarget

	// qcache is the hot-query result cache (nil when disabled); see
	// querycache.go.
	qcache *queryCache

	// qobs, when set, receives per-query telemetry (phase breakdown,
	// cache outcome, dependency pins); slowNS is the wall-clock past
	// which the chosen plan is rendered into the record. See query.go.
	qobs   func(obs.QueryStats)
	slowNS int64
}

type mappingSource struct {
	mi  *provenance.MappingInfo
	idx int // which source template
}

type mappingTarget struct {
	mi  *provenance.MappingInfo
	idx int // which target template
}

// NewView instantiates a view of the CDSS for the given owner peer (or ""
// for the global trust-all view). It expands the internal schema, compiles
// the provenance-encoded mapping program with the owner's trust
// conditions attached, and prepares the evaluation engine.
func NewView(spec *Spec, owner string, opts Options) (*View, error) {
	if owner != "" && spec.Universe.Peer(owner) == nil {
		return nil, fmt.Errorf("core: unknown view owner %q", owner)
	}
	v := &View{
		spec:   spec,
		owner:  owner,
		opts:   opts,
		db:     storage.NewDatabase(),
		sk:     value.NewSkolemTable(),
		qcache: newQueryCache(opts.QueryCacheSize),
	}
	if err := v.compile(); err != nil {
		return nil, err
	}
	return v, nil
}

// ensureTable returns the named table, creating it when absent. Evolution
// recompiles views against a database that already holds most tables; a
// pre-existing table with a different arity is a spec-validation bug.
func (v *View) ensureTable(name string, arity int) error {
	if t := v.db.Table(name); t != nil {
		if t.Arity() != arity {
			return fmt.Errorf("core: table %q exists with arity %d, spec wants %d", name, t.Arity(), arity)
		}
		return nil
	}
	_, err := v.db.Create(name, arity)
	return err
}

// compile (re)builds everything derived from the view's spec: missing
// internal tables, the provenance-encoded mapping program with the
// owner's trust filters inlined, the evaluation engine, the mapping
// metadata indexes, and the provenance graph. Existing table contents
// are untouched, so spec evolution can recompile a live view and then
// repair its materialized state incrementally (see evolve.go). The
// lazily-built derivability and inverse machinery is discarded — it is
// rebuilt against the new program on first use.
func (v *View) compile() error {
	spec, opts := v.spec, v.opts
	v.prog = datalog.NewProgram()
	v.infos = nil
	v.bySourceRel = make(map[string][]mappingSource)
	v.byTargetRel = make(map[string][]mappingTarget)
	v.dropScratchTables()
	v.chkDB, v.chkEv, v.inv = nil, nil, nil

	// Internal schema: four tables per user relation (Fig. 2).
	baseRels := make(map[string]bool)
	for _, rel := range spec.Universe.Relations() {
		k := rel.Arity()
		for _, name := range []string{LocalRel(rel.Name), RejectRel(rel.Name), InputRel(rel.Name), OutputRel(rel.Name)} {
			if err := v.ensureTable(name, k); err != nil {
				return err
			}
		}
		baseRels[LocalRel(rel.Name)] = true
	}

	// User mappings, rewritten onto the internal schema (§3.1): LHS reads
	// curated outputs, RHS feeds inputs.
	for _, m := range spec.Mappings {
		internal := m.RenameRels(OutputRel, InputRel)
		var encs []*tgd.ProvEncoding
		if opts.SplitProvTables {
			encs = internal.EncodeSplit()
		} else {
			encs = []*tgd.ProvEncoding{internal.Encode()}
		}
		for _, enc := range encs {
			if err := v.ensureTable(enc.ProvRel, len(enc.ProvVars)); err != nil {
				return err
			}
			// Trust conditions Θ compose along paths (§3.3): the view
			// owner's conditions AND those of each peer the mapping
			// targets.
			for _, cond := range v.effectiveConditions(m.ID) {
				accept := cond.Accept
				enc.Populate.AddFilter(cond.String(), func(env value.Env) bool {
					return accept.Eval(env)
				})
			}
			v.prog.Add(enc.Populate)
			v.prog.Add(enc.Derive...)
			mi, err := provenance.FromEncoding(enc)
			if err != nil {
				return err
			}
			v.registerMapping(mi)
		}
	}

	// Internal bookkeeping mappings per relation (§3.1, §3.3):
	//   (tR) Rᵒ(x̄) :- Rⁱ(x̄), ¬Rr(x̄)   [input, minus rejections]
	//   (ℓR) Rᵒ(x̄) :- Rℓ(x̄)            [local contributions]
	for _, rel := range spec.Universe.Relations() {
		k := rel.Arity()
		args := make([]datalog.Term, k)
		for i := range args {
			args[i] = datalog.V(fmt.Sprintf("c%d", i))
		}
		add := func(mapID, srcRel string, extraNeg string) error {
			pRel := provRelOf(mapID)
			if err := v.ensureTable(pRel, k); err != nil {
				return err
			}
			body := []datalog.Literal{datalog.Pos(datalog.NewAtom(srcRel, args...))}
			if extraNeg != "" {
				body = append(body, datalog.Neg(datalog.NewAtom(extraNeg, args...)))
			}
			v.prog.Add(datalog.NewRule(mapID+"'", datalog.NewAtom(pRel, args...), body...))
			v.prog.Add(datalog.NewRule(mapID+"''",
				datalog.NewAtom(OutputRel(rel.Name), args...),
				datalog.Pos(datalog.NewAtom(pRel, args...))))
			v.registerMapping(provenance.InternalMapping(mapID, pRel, srcRel, OutputRel(rel.Name), k))
			return nil
		}
		if err := add(insMapID(rel.Name), InputRel(rel.Name), RejectRel(rel.Name)); err != nil {
			return err
		}
		if err := add(locMapID(rel.Name), LocalRel(rel.Name), ""); err != nil {
			return err
		}
	}

	ev, err := engine.New(v.prog, v.db, v.sk, engine.Options{
		Backend:       opts.Backend,
		MaxIterations: opts.MaxIterations,
		Parallelism:   opts.Parallelism,
	})
	if err != nil {
		return err
	}
	v.ev = ev
	v.graph = provenance.NewGraph(v.db, v.sk, v.infos, baseRels)
	v.graph.SetTokenNamer(func(r provenance.Ref) string {
		// Strip the internal suffix for user-facing tokens.
		rel := r.Rel
		if len(rel) > 2 && rel[len(rel)-2] == '$' {
			rel = rel[:len(rel)-2]
		}
		return rel + r.Tuple().String()
	})
	return nil
}

// dropScratchTables removes the lazily-built derivability (c$/pi$) and
// query (q$) workspaces; they are always empty between operations and
// are rebuilt against the current program on demand.
func (v *View) dropScratchTables() {
	for _, name := range v.db.Names() {
		if strings.HasPrefix(name, "c$") || strings.HasPrefix(name, "pi$") || strings.HasPrefix(name, "q$") {
			v.db.Drop(name)
		}
	}
}

func (v *View) registerMapping(mi *provenance.MappingInfo) {
	v.infos = append(v.infos, mi)
	for i, s := range mi.Sources {
		v.bySourceRel[s.Rel] = append(v.bySourceRel[s.Rel], mappingSource{mi, i})
	}
	for i, t := range mi.Targets {
		v.byTargetRel[t.Rel] = append(v.byTargetRel[t.Rel], mappingTarget{mi, i})
	}
}

// effectiveConditions gathers the trust conditions applying to mapping id
// in this view: the owner's plus those of every target peer of the
// mapping (§3.3's AND-composition / delegation).
func (v *View) effectiveConditions(mapID string) []*trust.Condition {
	var out []*trust.Condition
	seen := make(map[*trust.Policy]bool)
	consider := func(p *trust.Policy) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p.Conditions(mapID)...)
	}
	if v.owner != "" {
		consider(v.spec.Policy(v.owner))
	}
	if m := v.spec.Mapping(mapID); m != nil {
		for _, peer := range m.TargetPeers(v.spec.Universe) {
			consider(v.spec.Policy(peer))
		}
	}
	return out
}

// baseTrustFilter returns the owner's base-trust predicate for
// NetEffect's membership simulation, or nil when the owner trusts every
// base tuple (the global view, or a peer without a policy) so the
// simulation can skip per-tuple policy evaluation.
func (v *View) baseTrustFilter() func(string, value.Tuple) bool {
	if v.owner == "" || v.spec.Policy(v.owner) == nil {
		return nil
	}
	return v.trustsBase
}

// trustsBase reports whether the view owner trusts a base tuple of a user
// relation (token-level trust, §3.3). Untrusted base tuples are never
// imported into the view.
func (v *View) trustsBase(rel string, t value.Tuple) bool {
	if v.owner == "" {
		return true
	}
	pol := v.spec.Policy(v.owner)
	if pol == nil {
		return true
	}
	relMeta := v.spec.Universe.Relation(rel)
	if relMeta == nil {
		return false
	}
	cols := make(map[string]value.Value, len(relMeta.Cols))
	for i, c := range relMeta.Cols {
		cols[c.Name] = t[i]
	}
	return pol.TrustsBase(rel, relMeta.Peer, cols)
}

// Spec returns the CDSS description the view was built from.
func (v *View) Spec() *Spec { return v.spec }

// Owner returns the view owner ("" for the global view).
func (v *View) Owner() string { return v.owner }

// DB exposes the underlying database (read-mostly; mutate via the
// maintenance operations).
func (v *View) DB() *storage.Database { return v.db }

// Skolems exposes the view's labeled-null interner.
func (v *View) Skolems() *value.SkolemTable { return v.sk }

// Program returns the compiled internal datalog program.
func (v *View) Program() *datalog.Program { return v.prog }

// Graph returns the provenance graph view.
func (v *View) Graph() *provenance.Graph { return v.graph }

// Instance returns the curated local instance Rᵒ of a user relation —
// what the peer's users query (§3.1).
func (v *View) Instance(rel string) *storage.Table { return v.db.Table(OutputRel(rel)) }

// DeclareSecondaryIndex pre-builds a persistent index on one column
// (named) of a user relation's curated instance Rᵒ. The storage layer
// maintains the index incrementally through every subsequent maintenance
// pass (it survives Clear), so read-path probes on the column hit a warm
// index instead of paying a scan or the hash backend's per-call
// transient build. Redeclaring an existing index is a no-op.
func (v *View) DeclareSecondaryIndex(rel, column string) error {
	meta := v.spec.Universe.Relation(rel)
	if meta == nil {
		return fmt.Errorf("core: unknown relation %q", rel)
	}
	col := -1
	for i, c := range meta.Cols {
		if c.Name == column {
			col = i
			break
		}
	}
	if col < 0 {
		return fmt.Errorf("core: relation %q has no column %q", rel, column)
	}
	v.db.Table(OutputRel(rel)).EnsureIndex(col)
	return nil
}

// LocalTable returns Rℓ.
func (v *View) LocalTable(rel string) *storage.Table { return v.db.Table(LocalRel(rel)) }

// RejectTable returns Rr.
func (v *View) RejectTable(rel string) *storage.Table { return v.db.Table(RejectRel(rel)) }

// InputTable returns Rⁱ.
func (v *View) InputTable(rel string) *storage.Table { return v.db.Table(InputRel(rel)) }

// ProvOf returns the provenance expression of a tuple of a user
// relation's curated instance.
func (v *View) ProvOf(rel string, t value.Tuple) provenance.Expr {
	return v.graph.ExprFor(provenance.NewRef(OutputRel(rel), t), 0)
}
