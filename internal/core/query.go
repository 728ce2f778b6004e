package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"orchestra/internal/datalog"
	"orchestra/internal/engine"
	"orchestra/internal/obs"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
	"orchestra/internal/value"
)

// QueryError is a structured parse/validation failure for the query
// surface. Pos is a byte offset into Query pointing at the fragment the
// message is about, so callers (the CLI, tests, editors) can render a
// caret instead of making users eyeball the whole string.
type QueryError struct {
	Query string
	Pos   int
	Msg   string
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("core: query error at offset %d: %s", e.Pos, e.Msg)
}

// Detail renders the error with the query text and a caret under the
// offending position — the CLI's error surface.
func (e *QueryError) Detail() string {
	pos := e.Pos
	if pos > len(e.Query) {
		pos = len(e.Query)
	}
	return fmt.Sprintf("%s\n  %s\n  %s^", e.Msg, e.Query, strings.Repeat(" ", pos))
}

func qerr(q string, pos int, format string, args ...any) error {
	return &QueryError{Query: q, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Query answers a conjunctive query over the view's curated instances
// with the certain-answers semantics of §2.1: tuples containing labeled
// nulls are discarded unless includeNulls is set (the "superset of the
// certain answers" option the paper mentions).
//
// The query syntax is datalog with an optional selection clause:
//
//	ans(x,y) :- U(x,z), U(y,z)
//	ans(x,y) :- U(x,y) where x >= 3 and y != 5
//
// Body relations are user relation names; they are answered from the Rᵒ
// instances. Cancellation is plumbed into the evaluation.
//
// A text the result cache already knows is answered before it is parsed;
// only a text miss parses, canonicalizes and probes the cache by
// α-canonical key.
func (v *View) Query(ctx context.Context, q string, includeNulls bool) ([]value.Tuple, error) {
	obsOn := v.qobs != nil
	st := obs.QueryStats{Query: q}
	var mark time.Time
	if obsOn {
		st.Start = time.Now()
	}
	var repairStats ApplyStats
	if err := v.repairIfDirty(ctx, &repairStats); err != nil {
		return nil, err
	}
	tk := textKey{text: q, nulls: includeNulls}
	if obsOn {
		mark = time.Now()
	}
	if rows, ok := v.qcache.lookupText(v.db, tk); ok {
		if obsOn {
			v.emitHit(st, mark, len(rows))
		}
		return rows, nil
	}
	if obsOn {
		st.CacheNS = time.Since(mark).Nanoseconds()
		mark = time.Now()
	}
	rule, err := v.parseQuery(q)
	if err != nil {
		return nil, err
	}
	key := canonicalQueryKey(rule, includeNulls)
	if obsOn {
		st.ParseNS = time.Since(mark).Nanoseconds()
		mark = time.Now()
	}
	if rows, ok := v.qcache.lookup(v.db, key, tk); ok {
		if obsOn {
			v.emitHit(st, mark, len(rows))
		}
		return rows, nil
	}
	if obsOn {
		st.CacheNS += time.Since(mark).Nanoseconds()
	}
	return v.evalQuery(ctx, rule, includeNulls, key, tk, st)
}

// SetQueryObserver attaches a per-query telemetry sink: fn receives one
// obs.QueryStats per completed query (phase breakdown, cache outcome,
// rows, dependency pins), and queries slower than slow also carry the
// chosen physical plan — rendered while the evaluator is still alive,
// which is the only moment it can be. A nil fn (the default) keeps the
// instrumentation sites compiled-in no-ops. Call before the view is
// shared; the query path reads the fields without synchronization.
func (v *View) SetQueryObserver(fn func(obs.QueryStats), slow time.Duration) {
	v.qobs = fn
	v.slowNS = slow.Nanoseconds()
}

// parseQuery parses "head :- body [where pred]" over user relations.
// Every failure is a *QueryError carrying the byte offset of the
// offending fragment.
func (v *View) parseQuery(q string) (*datalog.Rule, error) {
	s := tgd.Scan(q)
	heads, err := s.Atoms()
	if err != nil {
		return nil, qerr(q, 0, "head: %v", err)
	}
	if len(heads) != 1 {
		return nil, qerr(q, 0, "query must have exactly one head atom, got %d", len(heads))
	}
	if !s.Accept(":-") {
		return nil, qerr(q, 0, "missing ':-' between head and body")
	}
	args := heads[0].Args
	for i, t := range args {
		for _, u := range args[:i] {
			if t.Kind == datalog.TermVar && u.Kind == datalog.TermVar && t.Var == u.Var {
				return nil, qerr(q, 0, "head repeats variable %q; bind it once and equate in the body or a where clause", t.Var)
			}
		}
	}
	if s.Done() {
		return nil, qerr(q, s.Peek().Pos, "empty body")
	}
	body := make([]datalog.Literal, 0, 4)
	for {
		pos := s.Peek().Pos
		a, err := s.Atom()
		if err != nil {
			return nil, qerr(q, pos, "body: %v", err)
		}
		if v.spec.Universe.Relation(a.Pred) == nil {
			return nil, qerr(q, pos, "unknown relation %q", a.Pred)
		}
		body = append(body, datalog.Pos(datalog.NewAtom(OutputRel(a.Pred), a.Args...)))
		if !s.AcceptConj() {
			break
		}
	}
	var where *trust.Pred
	if s.Accept("where") {
		pos := s.Peek().Pos
		if where, err = trust.ParsePred(s.Rest()); err != nil {
			return nil, qerr(q, pos, "selection: %v", err)
		}
	} else if !s.Done() {
		return nil, qerr(q, s.Peek().Pos, "body: unexpected %s", s.Peek())
	}
	rule := datalog.NewRule("query", heads[0], body...)
	if where != nil && !where.Trivial() {
		pred := where
		rule.AddFilterSel(pred.String(), pred.Selectivity(), func(env value.Env) bool {
			return pred.Eval(env)
		})
	}
	return rule, nil
}

// evalQuery is Query's cache-miss path: compile, evaluate, collect, and
// store the result under key with tk as its alias. st carries the phase
// clocks so far; it is emitted only when an observer is attached.
func (v *View) evalQuery(ctx context.Context, rule *datalog.Rule, includeNulls bool, key string, tk textKey, st obs.QueryStats) ([]value.Tuple, error) {
	obsOn := v.qobs != nil
	// Pin dependency generations before evaluating: the evaluator only
	// writes the q$ workspace, so the result is consistent with these.
	deps := v.queryDeps(rule)

	mark := time.Now()
	ev, tmp, cleanup, err := v.compileQuery(rule)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if obsOn {
		st.PlanNS = time.Since(mark).Nanoseconds()
		mark = time.Now()
	}
	if _, err := ev.Run(ctx); err != nil {
		return nil, err
	}
	var out []value.Tuple
	for _, row := range v.db.Table(tmp).Rows() {
		if !includeNulls && row.HasNull() {
			continue
		}
		out = append(out, row)
	}
	if obsOn {
		st.EvalNS = time.Since(mark).Nanoseconds()
		st.Rows = len(out)
		if deps == nil {
			st.Outcome = "uncached"
		} else {
			st.Outcome = "miss"
			st.Deps = make([]obs.QueryDep, len(deps))
			for i, d := range deps {
				st.Deps[i] = obs.QueryDep{Rel: d.name, Gen: d.gen}
			}
		}
		st.WallNS = time.Since(st.Start).Nanoseconds()
		v.emitQuery(st, ev)
	}
	v.qcache.store(key, tk, out, deps)
	return out, nil
}

// emitHit emits a cache hit's record; mark is when its cache probe began.
func (v *View) emitHit(st obs.QueryStats, mark time.Time, rows int) {
	now := time.Now()
	st.Outcome = "hit"
	st.CacheNS += now.Sub(mark).Nanoseconds()
	st.Rows = rows
	st.WallNS = now.Sub(st.Start).Nanoseconds()
	v.emitQuery(st, nil)
}

// emitQuery hands a completed query's record to the attached observer,
// first rendering the chosen plan when the query tripped the slow
// threshold — ev must still be alive for ExplainString, so this is the
// only moment the plan can be captured. ev is nil on cache hits (no
// evaluator ran, no plan to render).
func (v *View) emitQuery(st obs.QueryStats, ev *engine.Evaluator) {
	if v.slowNS > 0 && st.WallNS >= v.slowNS && ev != nil {
		st.Plan = ev.ExplainString()
	}
	v.qobs(st)
}

// compileQuery sets up the q$ workspace table for rule's head and builds
// a query-mode evaluator over it (cost-based join ordering unless the
// view opted into the legacy planner). The returned cleanup drops the
// workspace.
func (v *View) compileQuery(rule *datalog.Rule) (ev *engine.Evaluator, tmp string, cleanup func(), err error) {
	tmp = "q$" + rule.Head.Pred
	if v.db.Table(tmp) != nil {
		return nil, "", nil, fmt.Errorf("core: query workspace %q busy", tmp)
	}
	head := datalog.NewAtom(tmp, rule.Head.Args...)
	qr := datalog.NewRule(rule.ID, head, rule.Body...)
	qr.Filters, qr.FilterDescs, qr.FilterSels = rule.Filters, rule.FilterDescs, rule.FilterSels
	if _, err := v.db.Create(tmp, len(head.Args)); err != nil {
		return nil, "", nil, err
	}
	cleanup = func() { v.db.Drop(tmp) }
	ev, err = engine.NewQuery(datalog.NewProgram(qr), v.db, v.sk, engine.Options{
		Backend:     v.opts.Backend,
		Parallelism: v.opts.Parallelism,
		CostBased:   !v.opts.LegacyQueryPlanner,
	})
	if err != nil {
		cleanup()
		return nil, "", nil, err
	}
	return ev, tmp, cleanup, nil
}

// queryDeps pins (table, generation) for every distinct relation the
// rule body reads. A nil return — some body table is missing — disables
// caching for this query.
func (v *View) queryDeps(rule *datalog.Rule) []cacheDep {
	seen := make(map[string]bool, len(rule.Body))
	deps := make([]cacheDep, 0, len(rule.Body))
	for _, l := range rule.Body {
		if seen[l.Atom.Pred] {
			continue
		}
		seen[l.Atom.Pred] = true
		tbl := v.db.Table(l.Atom.Pred)
		if tbl == nil {
			return nil
		}
		deps = append(deps, cacheDep{name: l.Atom.Pred, tbl: tbl, gen: tbl.Generation()})
	}
	return deps
}
