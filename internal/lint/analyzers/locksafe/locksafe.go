// Package locksafe guards the System-lock discipline (PRs 1, 4, 5): no
// blocking work — view compilation, publication-bus round trips, HTTP,
// checkpoint/fsync paths — may run while orchestra.System.mu is held
// (every reader of the views map would stall behind it), and a manually
// released mutex must be released on every early-return path.
//
// The analysis is intraprocedural and deliberately conservative: lock
// state is tracked per function over simple selector expressions
// ("s.mu"), branches are explored with a copy of the state, and nested
// function literals are independent scopes (they run under their own
// schedule, not the enclosing critical section).
package locksafe

import (
	"go/ast"

	"orchestra/internal/lint/analysis"
)

// LockSpec names one guarded lock: a mutex-typed field of a named type
// whose critical sections must stay non-blocking.
type LockSpec struct {
	Type  string // qualified named type, e.g. "orchestra.System"
	Field string // mutex field name, e.g. "mu"
}

// Guarded lists the locks whose critical sections must not block.
var Guarded = []LockSpec{
	{Type: "orchestra.System", Field: "mu"},
}

// Blocking maps callees (per analysis.FuncName) to a short reason they
// may block. Curated from the hot paths PRs 2–5 introduced.
var Blocking = map[string]string{
	// View compilation (PR 5 moved it outside the System lock).
	"orchestra/internal/core.NewView":              "compiles the whole mapping program",
	"orchestra/internal/core.RestoreView":          "decodes and recompiles a full view",
	"(orchestra/internal/core.View).Evolve":        "recompiles the mapping program and repairs the view in place",
	"(orchestra/internal/core.View).compile":       "compiles the whole mapping program",
	"(orchestra/internal/core.View).Repair":        "runs maintenance fixpoints",
	"(orchestra/internal/core.View).FullRecompute": "recomputes the instance from scratch",
	// Exchange and bus round trips (may traverse HTTP on a remote bus).
	"orchestra/internal/core.ExchangeInto":             "replays bus publications through maintenance fixpoints",
	"orchestra/internal/core.ExchangeCoalesced":        "replays the pending run through maintenance fixpoints",
	"orchestra/internal/core.ExchangeDeltas":           "applies push-delivered publications through maintenance fixpoints",
	"orchestra/internal/core.PublishTo":                "bus round trip",
	"(orchestra/internal/core.BusAppender).Append":     "bus round trip",
	"(orchestra/internal/core.BusReader).Fetch":        "bus round trip",
	"(orchestra/internal/core.BusReader).Horizon":      "bus round trip",
	"(orchestra/internal/core.BusWatcher).Subscribe":   "bus round trip",
	"(orchestra/internal/core.PublicationBus).Append":  "bus round trip",
	"(orchestra/internal/core.PublicationBus).Fetch":   "bus round trip",
	"(orchestra/internal/core.PublicationBus).Horizon": "bus round trip",
	"(orchestra/internal/share.Bus).Append":            "HTTP round trip",
	"(orchestra/internal/share.Bus).Fetch":             "HTTP round trip",
	"(orchestra/internal/share.Bus).Horizon":           "HTTP round trip",
	"(orchestra/internal/share.Bus).Subscribe":         "opens a streaming HTTP connection",
	// Durability (fsync under the System lock stalls every view reader).
	"orchestra/internal/statestore.Open":                       "reads and validates the checkpoint directory",
	"(orchestra/internal/statestore.Store).SaveView":           "writes and fsyncs a snapshot",
	"(orchestra/internal/statestore.Store).AppendView":         "writes and fsyncs a journal frame",
	"(orchestra/internal/statestore.Store).SetSpecFingerprint": "rewrites and fsyncs the manifest",
	"(orchestra/internal/statestore.Store).Remove":             "rewrites and fsyncs the manifest",
	"orchestra/internal/logstore.Open":                         "replays the publication log",
	"orchestra/internal/logstore.OpenShardedBus":               "replays every shard segment",
	"(orchestra/internal/logstore.Store).Append":               "writes and fsyncs a log frame",
	"(orchestra/internal/logstore.ShardedBus).Append":          "writes and fsyncs a shard frame",
	// Observability registration and rendering (PR 7). Registering an
	// instrument takes the registry lock and may allocate; rendering
	// walks every series; the trace ring buffer takes its own mutex.
	// Hot paths under System.mu may only touch pre-resolved instrument
	// handles (Inc/Add/Set/Observe are lock-free atomics and stay legal).
	"(orchestra/internal/obs.Registry).Counter":         "registry lookup takes the registry lock",
	"(orchestra/internal/obs.Registry).Gauge":           "registry lookup takes the registry lock",
	"(orchestra/internal/obs.Registry).GaugeFunc":       "registry lookup takes the registry lock",
	"(orchestra/internal/obs.Registry).Histogram":       "registry lookup takes the registry lock",
	"(orchestra/internal/obs.Registry).WritePrometheus": "renders every registered series",
	"(orchestra/internal/obs.Tracer).Add":               "takes the trace ring-buffer lock",
	"(orchestra/internal/obs.Tracer).Last":              "copies traces under the ring-buffer lock",
	"(orchestra/internal/obs.PubTracer).Add":            "takes the publish ring-buffer lock",
	"(orchestra/internal/obs.PubTracer).Find":           "scans the publish ring under its lock",
	"(orchestra/internal/obs.PubTracer).Last":           "copies publish records under the ring lock",
	"(orchestra/internal/obs.SlowQueryRing).Add":        "takes the slow-query ring lock",
	"(orchestra/internal/obs.SlowQueryRing).Last":       "copies slow queries under the ring lock",
	// Generic blockers.
	"(net/http.Client).Do":   "HTTP round trip",
	"(net/http.Client).Get":  "HTTP round trip",
	"(net/http.Client).Post": "HTTP round trip",
	"(net/http.Client).Head": "HTTP round trip",
	"net/http.Get":           "HTTP round trip",
	"net/http.Post":          "HTTP round trip",
	"(os.File).Sync":         "fsync",
	"time.Sleep":             "sleeps",
}

// Analyzer is the locksafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "no blocking work under the System lock; manual locks released on every return path\n\n" +
		"View compile was deliberately moved outside System.mu (PR 5) and exchange\n" +
		"fan-out relies on the lock guarding only the views map; a blocking call\n" +
		"in that critical section serializes the whole confederation.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// lockState tracks, within one function, which mutexes are held and
// whether their release is deferred. maybeReleased records locks some
// explored branch released: control flow is then too braided for the
// linear imbalance check, so those locks stop being reported.
type lockState struct {
	held          map[string]bool // expr key -> currently held
	deferred      map[string]bool // expr key -> unlock is deferred
	guarded       map[string]bool // expr key -> lock is a Guarded spec
	maybeReleased map[string]bool // expr key -> released on some branch
}

func newLockState() *lockState {
	return &lockState{held: map[string]bool{}, deferred: map[string]bool{}, guarded: map[string]bool{}, maybeReleased: map[string]bool{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k, v := range s.deferred {
		c.deferred[k] = v
	}
	for k, v := range s.guarded {
		c.guarded[k] = v
	}
	for k, v := range s.maybeReleased {
		c.maybeReleased[k] = v
	}
	return c
}

func (s *lockState) guardedHeld() string {
	for k := range s.held {
		if s.guarded[k] {
			return k
		}
	}
	return ""
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	walkStmts(pass, body.List, newLockState())
}

// walkStmts processes a statement list linearly, exploring compound
// statements with a copy of the state (their effects on lock state are
// not propagated — conservative for the flag-on-held checks, and exact
// for the dominant lock/branch/unlock idioms).
func walkStmts(pass *analysis.Pass, stmts []ast.Stmt, state *lockState) {
	for _, stmt := range stmts {
		walkStmt(pass, stmt, state)
	}
}

func walkStmt(pass *analysis.Pass, stmt ast.Stmt, state *lockState) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, kind, ok := lockOp(pass, call); ok {
				switch kind {
				case "Lock", "RLock":
					state.held[key] = true
					state.guarded[key] = isGuarded(pass, call)
				case "Unlock", "RUnlock":
					delete(state.held, key)
					delete(state.deferred, key)
				}
				return
			}
		}
		checkLeaf(pass, s, state)
	case *ast.DeferStmt:
		if key, kind, ok := lockOp(pass, s.Call); ok && (kind == "Unlock" || kind == "RUnlock") {
			state.deferred[key] = true
			return
		}
		checkLeaf(pass, s, state)
	case *ast.ReturnStmt:
		for key := range state.held {
			if !state.deferred[key] && !state.maybeReleased[key] {
				pass.Reportf(s.Pos(), "return while %s is locked with no deferred unlock on this path", key)
			}
		}
		checkLeaf(pass, s, state)
	case *ast.BlockStmt:
		walkStmts(pass, s.List, state)
	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, state)
		}
		checkExpr(pass, s.Cond, state)
		walkBranch(pass, s.Body.List, state)
		if s.Else != nil {
			walkBranch(pass, []ast.Stmt{s.Else}, state)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, state)
		}
		if s.Cond != nil {
			checkExpr(pass, s.Cond, state)
		}
		walkBranch(pass, s.Body.List, state)
	case *ast.RangeStmt:
		checkExpr(pass, s.X, state)
		walkBranch(pass, s.Body.List, state)
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, state)
		}
		if s.Tag != nil {
			checkExpr(pass, s.Tag, state)
		}
		for _, clause := range s.Body.List {
			walkBranch(pass, clause.(*ast.CaseClause).Body, state)
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			walkBranch(pass, clause.(*ast.CaseClause).Body, state)
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			walkBranch(pass, clause.(*ast.CommClause).Body, state)
		}
	case *ast.LabeledStmt:
		walkStmt(pass, s.Stmt, state)
	case *ast.GoStmt:
		// A spawned goroutine does not run under the caller's lock.
	default:
		checkLeaf(pass, stmt, state)
	}
}

// walkBranch explores a conditional/looped statement list with a copy
// of the state, then records which outer locks it released so the
// imbalance check downgrades them to maybe-released.
func walkBranch(pass *analysis.Pass, stmts []ast.Stmt, state *lockState) {
	c := state.clone()
	walkStmts(pass, stmts, c)
	for key := range state.held {
		if !c.held[key] {
			state.maybeReleased[key] = true
		}
	}
	for key := range c.maybeReleased {
		state.maybeReleased[key] = true
	}
	for key := range c.deferred {
		if state.held[key] {
			state.deferred[key] = true
		}
	}
}

// checkLeaf inspects a non-compound statement for blocking calls while
// a guarded lock is held.
func checkLeaf(pass *analysis.Pass, stmt ast.Stmt, state *lockState) {
	checkExpr(pass, stmt, state)
}

func checkExpr(pass *analysis.Pass, n ast.Node, state *lockState) {
	lock := state.guardedHeld()
	if lock == "" || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // runs under its own schedule
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := pass.CalleeName(call)
		if why, bad := Blocking[name]; bad {
			pass.Reportf(call.Pos(), "%s (%s) called while %s — the System lock — is held; move it outside the critical section", name, why, lock)
		}
		return true
	})
}

// lockOp recognizes m.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex reachable through a simple selector chain, returning a
// stable key for the mutex expression. Locks reached through index
// expressions or calls are not tracked.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (key, kind string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	kind = sel.Sel.Name
	switch kind {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	recv := analysis.TypeName(pass.NamedType(sel.X))
	if recv != "sync.Mutex" && recv != "sync.RWMutex" {
		return "", "", false
	}
	key, okKey := exprKey(sel.X)
	if !okKey {
		return "", "", false
	}
	return key, kind, true
}

// isGuarded reports whether a lock call's mutex is one of the Guarded
// specs: a field selector <x>.<Field> where <x> has the spec's type.
func isGuarded(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel := call.Fun.(*ast.SelectorExpr)
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	owner := analysis.TypeName(pass.NamedType(field.X))
	for _, g := range Guarded {
		if owner == g.Type && field.Sel.Name == g.Field {
			return true
		}
	}
	return false
}

// exprKey renders a simple identifier/selector chain ("s.mu",
// "h.view.mu"); anything else (indexing, calls) is untrackable.
func exprKey(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return exprKey(e.X)
	}
	return "", false
}
