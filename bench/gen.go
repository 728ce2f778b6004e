package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"

	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/schema"
	"orchestra/internal/value"
	wlgen "orchestra/internal/workload"
)

// A workload's confederation (peers, relations, mappings) is part of
// the workload's definition: it is generated from a constant schema
// seed, so every run of a workload maintains structurally identical
// views. Only the data — attribute values, hence every published tuple
// and every probed key — is derived from -seed. Otherwise a metric's
// spread across seeds would measure how much two random schemas differ,
// not how steady the program is.
const schemaSeed = 20070923

// newSpec generates the confederation for a workload shape.
func newSpec(peers int, topo wlgen.Topology, attrs wlgen.AttrMode) (*core.Spec, error) {
	w, err := wlgen.New(wlgen.Config{
		Peers:    peers,
		Topology: topo,
		AttrMode: attrs,
		Dataset:  wlgen.DatasetInteger,
		Seed:     schemaSeed,
	})
	if err != nil {
		return nil, err
	}
	return w.Spec, nil
}

// entry is one universal-relation entry normalized into a peer's
// relations: one insertion per relation, all sharing the key.
type entry struct {
	key int64
	ins core.EditLog
}

func (e entry) deletions() core.EditLog {
	log := make(core.EditLog, len(e.ins))
	for i, ed := range e.ins {
		log[i] = core.Del(ed.Rel, ed.Tuple)
	}
	return log
}

// stream generates a workload's edits from the seed. Per peer it keeps
// an immutable base (entries that are never deleted, so probes of them
// have a known answer for the whole run), a FIFO of live churn entries
// that deletions consume oldest first, and a FIFO of dead entries that
// insertions draw from. The universe of entries is fixed at seeding:
// every insertion of the timed section re-inserts a tuple that was
// deleted earlier, so every write workload interleaves insert, delete
// and re-insert of the same tuples, and everything the program keeps —
// tables, provenance, the labeled-null interner — is stationary. (Fresh
// keys would grow the interner, which never forgets a null, and with it
// every snapshot and every collection cycle, for as long as the run
// lasts.)
type stream struct {
	seed    uint64
	spec    *core.Spec
	nextKey int64
	base    map[string][]entry
	churn   map[string][]entry
	dead    map[string][]entry
	// sum hashes every generated edit and query, in order: the input
	// fingerprint the determinism tests compare across seeds.
	sum hash.Hash64
}

func newStream(spec *core.Spec, seed int64) *stream {
	return &stream{
		seed:  uint64(seed),
		spec:  spec,
		base:  make(map[string][]entry),
		churn: make(map[string][]entry),
		dead:  make(map[string][]entry),
		sum:   fnv.New64a(),
	}
}

// attrValue is the integer-dataset value of one attribute of one entry:
// a splitmix64 of (seed, key, attribute name). The same entry carries
// the same value for the same attribute at every peer, which is what
// makes shared-attribute joins across peers non-empty.
func (s *stream) attrValue(key int64, attr string) value.Value {
	h := fnv.New64a()
	h.Write([]byte(attr))
	x := s.seed*0x9e3779b97f4a7c15 + uint64(key)*0xbf58476d1ce4e5b9 + h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return value.Int(int64(x >> 1))
}

func (s *stream) newEntry(peer string) entry {
	s.nextKey++
	e := entry{key: s.nextKey}
	for _, rel := range s.peerRelations(peer) {
		t := make(value.Tuple, len(rel.Cols))
		t[0] = value.Int(e.key)
		for i, col := range rel.Cols[1:] {
			t[i+1] = s.attrValue(e.key, col.Name)
		}
		e.ins = append(e.ins, core.Ins(rel.Name, t))
	}
	return e
}

func (s *stream) peerRelations(peer string) []*schema.Relation {
	var out []*schema.Relation
	for _, rel := range s.spec.Universe.Relations() {
		if rel.Peer == peer {
			out = append(out, rel)
		}
	}
	return out
}

func (s *stream) record(log core.EditLog) core.EditLog {
	var buf []byte
	for _, e := range log {
		buf = buf[:0]
		if e.Insert {
			buf = append(buf, '+')
		} else {
			buf = append(buf, '-')
		}
		buf = append(buf, e.Rel...)
		buf = e.Tuple.EncodeKey(buf)
		s.sum.Write(buf)
	}
	return log
}

func (s *stream) recordQuery(q string) { s.sum.Write([]byte(q)) }

// inputHash is the fingerprint of everything generated so far.
func (s *stream) inputHash() string { return fmt.Sprintf("%016x", s.sum.Sum64()) }

// seedPubs returns the two publications that seed a peer's state before
// the timed section. The first inserts the peer's whole universe: nBase
// immutable entries and 2*nChurn churn entries. The second deletes
// nChurn of those again, which become the pool insertions draw from.
func (s *stream) seedPubs(peer string, nBase, nChurn int) []core.Publication {
	var all, del core.EditLog
	for i := 0; i < nBase+2*nChurn; i++ {
		e := s.newEntry(peer)
		all = append(all, e.ins...)
		switch {
		case i < nBase:
			s.base[peer] = append(s.base[peer], e)
		case i < nBase+nChurn:
			s.churn[peer] = append(s.churn[peer], e)
		default:
			s.dead[peer] = append(s.dead[peer], e)
			del = append(del, e.deletions()...)
		}
	}
	return []core.Publication{{Peer: peer, Log: s.record(all)}, {Peer: peer, Log: s.record(del)}}
}

// pubShape says what one publication carries, in entries: ins entries
// re-inserted (the longest-dead first), delOld of the oldest live churn
// entries deleted, and delNew of the most recently inserted ones — the
// deletions that, inside a coalesced run, cancel against their own
// insertion.
type pubShape struct {
	ins, delOld, delNew int
}

// publication builds a peer's next publication: deletions first, then
// insertions. It returns the inserted and the deleted entries for
// visibility checks.
func (s *stream) publication(peer string, sh pubShape) (log core.EditLog, inserted, deleted []entry) {
	churn, dead := s.churn[peer], s.dead[peer]
	for i := 0; i < sh.delNew && len(churn) > 0; i++ {
		deleted = append(deleted, churn[len(churn)-1])
		churn = churn[:len(churn)-1]
	}
	for i := 0; i < sh.delOld && len(churn) > 0; i++ {
		deleted = append(deleted, churn[0])
		churn = churn[1:]
	}
	for i := 0; i < sh.ins && len(dead) > 0; i++ {
		inserted = append(inserted, dead[0])
		dead = dead[1:]
	}
	for _, e := range deleted {
		log = append(log, e.deletions()...)
	}
	for _, e := range inserted {
		log = append(log, e.ins...)
	}
	s.churn[peer], s.dead[peer] = append(churn, inserted...), append(dead, deleted...)
	return s.record(log), inserted, deleted
}

// liveKeys is the set of keys a peer currently has inserted.
func (s *stream) liveKeys(peer string) map[int64]bool {
	live := make(map[int64]bool, len(s.base[peer])+len(s.churn[peer]))
	for _, e := range s.base[peer] {
		live[e.key] = true
	}
	for _, e := range s.churn[peer] {
		live[e.key] = true
	}
	return live
}

// liveEntries counts the entries currently inserted across all peers.
func (s *stream) liveEntries() int {
	n := 0
	for _, es := range s.base {
		n += len(es)
	}
	for _, es := range s.churn {
		n += len(es)
	}
	return n
}

// query is a conjunctive query in both the forms the layers take: the
// text System.Query and View.Query parse, and the compiled rule
// engine.NewQuery evaluates over the view's curated-instance tables.
type query struct {
	text string
	rule *datalog.Rule
	// joinCol names the shared attribute of a join ("" for a probe).
	joinCol string
}

func vars(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// pointProbe asks for the tuple of rel with the given key.
func pointProbe(rel *schema.Relation, key int64) query {
	vs := vars("x", len(rel.Cols)-1)
	args := []datalog.Term{datalog.C(value.Int(key))}
	for _, v := range vs {
		args = append(args, datalog.V(v))
	}
	head := make([]datalog.Term, len(vs))
	copy(head, args[1:])
	return query{
		text: fmt.Sprintf("probe(%s) :- %s(%d, %s)", strings.Join(vs, ","), rel.Name, key, strings.Join(vs, ",")),
		rule: datalog.NewRule("query", datalog.NewAtom("probe", head...),
			datalog.Pos(datalog.NewAtom(core.OutputRel(rel.Name), args...))),
	}
}

// sharedJoin joins two relations on a non-key attribute they share,
// returning its values; ok is false when they share none.
func sharedJoin(a, b *schema.Relation) (q query, ok bool) {
	for ai := 1; ai < len(a.Cols); ai++ {
		bi := b.ColIndex(a.Cols[ai].Name)
		if bi < 1 {
			continue
		}
		atom := func(rel *schema.Relation, prefix string, at int) (string, datalog.Atom) {
			names := vars(prefix, len(rel.Cols))
			names[at] = "s"
			terms := make([]datalog.Term, len(names))
			for i, n := range names {
				terms[i] = datalog.V(n)
			}
			return fmt.Sprintf("%s(%s)", rel.Name, strings.Join(names, ",")),
				datalog.NewAtom(core.OutputRel(rel.Name), terms...)
		}
		at, aa := atom(a, "a", ai)
		bt, ba := atom(b, "b", bi)
		return query{
			text:    fmt.Sprintf("join(s) :- %s, %s", at, bt),
			rule:    datalog.NewRule("query", datalog.NewAtom("join", datalog.V("s")), datalog.Pos(aa), datalog.Pos(ba)),
			joinCol: a.Cols[ai].Name,
		}, true
	}
	return query{}, false
}
