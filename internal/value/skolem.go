package value

import (
	"fmt"
	"strings"
	"sync"
)

// SkolemTable interns Skolem terms f(v1,…,vk) into labeled-null ids.
// Interning makes labeled-null equality exactly term equality, which is
// what datalog-with-Skolem-functions evaluation requires (paper §4.1.1):
// "two placeholder values will be the same if and only if they were
// generated with the same Skolem function with the same arguments".
//
// A SkolemTable is safe for concurrent use.
type SkolemTable struct {
	mu    sync.RWMutex
	byKey map[string]int64
	terms []skolemTerm // index = id-1 (ids start at 1)
}

type skolemTerm struct {
	fn   string
	args Tuple
}

// NewSkolemTable returns an empty interner. Ids start at 1 so that the
// zero Value is never a valid labeled null.
func NewSkolemTable() *SkolemTable {
	return &SkolemTable{byKey: make(map[string]int64)}
}

// Apply interns the Skolem term fn(args…) and returns its labeled null.
// Repeated calls with the same function name and arguments return the same
// null; Skolem arguments may themselves be labeled nulls.
func (st *SkolemTable) Apply(fn string, args Tuple) Value {
	v, _ := st.ApplyBuf(fn, args, nil)
	return v
}

// ApplyBuf is Apply with a caller-supplied scratch buffer for the term's
// key encoding, returning the (possibly grown) buffer for reuse. Hot
// loops thread a per-worker buffer through it so the already-interned
// path allocates nothing regardless of key size.
func (st *SkolemTable) ApplyBuf(fn string, args Tuple, buf []byte) (Value, []byte) {
	key := appendSkolemKey(buf[:0], fn, args)

	st.mu.RLock()
	id, ok := st.byKey[string(key)]
	st.mu.RUnlock()
	if ok {
		return Null(id), key
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok = st.byKey[string(key)]; ok {
		return Null(id), key
	}
	st.terms = append(st.terms, skolemTerm{fn: fn, args: args.Clone()})
	id = int64(len(st.terms))
	st.byKey[string(key)] = id
	return Null(id), key
}

// Lookup returns the labeled null previously interned for fn(args…)
// without interning on a miss. A missing term cannot equal any value
// already stored in a relation, so body-side Skolem equality checks use
// Lookup — it keeps read-heavy evaluation from growing the table (and
// from taking its write lock).
func (st *SkolemTable) Lookup(fn string, args Tuple) (Value, bool) {
	v, _, ok := st.LookupBuf(fn, args, nil)
	return v, ok
}

// LookupBuf is Lookup with a caller-supplied scratch buffer, returning
// the (possibly grown) buffer for reuse.
func (st *SkolemTable) LookupBuf(fn string, args Tuple, buf []byte) (Value, []byte, bool) {
	key := appendSkolemKey(buf[:0], fn, args)
	st.mu.RLock()
	id, ok := st.byKey[string(key)]
	st.mu.RUnlock()
	if !ok {
		return Value{}, key, false
	}
	return Null(id), key, true
}

func appendSkolemKey(b []byte, fn string, args Tuple) []byte {
	b = append(b, fn...)
	b = append(b, 0)
	return args.EncodeKey(b)
}

// Resolve returns the Skolem function name and arguments that produced the
// labeled null with the given id, for provenance display. The second
// result is false if the id is unknown.
func (st *SkolemTable) Resolve(id int64) (fn string, args Tuple, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if id < 1 || id > int64(len(st.terms)) {
		return "", nil, false
	}
	t := st.terms[id-1]
	return t.fn, t.args, true
}

// Describe renders a labeled null as its originating Skolem term, e.g.
// "f_m3_c(5)". Non-null values render via Value.String.
func (st *SkolemTable) Describe(v Value) string {
	if !v.IsNull() {
		return v.String()
	}
	fn, args, ok := st.Resolve(v.NullID())
	if !ok {
		return v.String()
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = st.Describe(a)
	}
	return fmt.Sprintf("%s(%s)", fn, strings.Join(parts, ","))
}

// Len reports how many distinct Skolem terms have been interned.
func (st *SkolemTable) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.terms)
}
