package core

import (
	"fmt"

	"orchestra/internal/storage"
	"orchestra/internal/value"
)

// Edit is one entry of a peer's edit log ∆R (§3.1): an insertion or
// deletion of a tuple of one of the peer's own relations.
type Edit struct {
	Insert bool
	Rel    string
	Tuple  value.Tuple
}

// Ins builds an insertion edit.
func Ins(rel string, t value.Tuple) Edit { return Edit{Insert: true, Rel: rel, Tuple: t} }

// Del builds a deletion edit.
func Del(rel string, t value.Tuple) Edit { return Edit{Insert: false, Rel: rel, Tuple: t} }

// String renders "+R(1,2)" / "-R(1,2)".
func (e Edit) String() string {
	sign := "-"
	if e.Insert {
		sign = "+"
	}
	return fmt.Sprintf("%s%s%s", sign, e.Rel, e.Tuple)
}

// EditLog is an ordered list of edits published together.
type EditLog []Edit

// NetEffect computes the state changes an edit log induces on the
// local-contributions and rejections tables of its relations (§3.1):
//
//   - "+t": if t is currently rejected, the rejection is withdrawn; t
//     becomes a local contribution.
//   - "−t": if t is a local contribution (from before or from earlier in
//     this log) it is simply removed; otherwise the deletion is a
//     curation rejection of imported data and t enters Rr.
//
// Rℓ holds every contributed tuple, whether or not the view owner
// trusts it: base trust is a filter on the (ℓR) rule (see View.compile),
// so the net effect depends only on the edit history, never on the
// observer's policy.
//
// The effects are returned as deltas over the internal Rℓ and Rr tables
// of the view's database, relative to their current contents. Nothing is
// applied.
func NetEffect(log EditLog, db *storage.Database) (dl storage.DeltaSet, dr storage.DeltaSet, err error) {
	// Simulated membership during the scan: touched keys only. Each tuple
	// is canonically encoded once here; the key then flows through the
	// membership probes and into the produced deltas.
	type state struct{ inL, inR bool }
	states := make(map[string]map[string]*state) // rel -> key -> state
	tupOf := make(map[string]map[string]value.Tuple)
	var keyBuf []byte

	get := func(rel string, t value.Tuple) (*state, error) {
		lt := db.Table(LocalRel(rel))
		rt := db.Table(RejectRel(rel))
		if lt == nil || rt == nil {
			return nil, fmt.Errorf("core: edit log references unknown relation %q", rel)
		}
		if len(t) != lt.Arity() {
			return nil, fmt.Errorf("core: edit tuple %s has arity %d, relation %q expects %d",
				t, len(t), rel, lt.Arity())
		}
		byKey := states[rel]
		if byKey == nil {
			byKey = make(map[string]*state)
			states[rel] = byKey
			tupOf[rel] = make(map[string]value.Tuple)
		}
		keyBuf = t.EncodeKey(keyBuf[:0])
		st, ok := byKey[string(keyBuf)]
		if !ok {
			key := string(keyBuf)
			st = &state{inL: lt.ContainsKey(key), inR: rt.ContainsKey(key)}
			byKey[key] = st
			tupOf[rel][key] = t.Clone()
		}
		return st, nil
	}

	for _, e := range log {
		st, gerr := get(e.Rel, e.Tuple)
		if gerr != nil {
			return nil, nil, gerr
		}
		if e.Insert {
			st.inR = false
			st.inL = true
		} else {
			if st.inL {
				st.inL = false
			} else {
				st.inR = true
			}
		}
	}

	dl, dr = storage.DeltaSet{}, storage.DeltaSet{}
	for rel, byKey := range states {
		lt := db.Table(LocalRel(rel))
		rt := db.Table(RejectRel(rel))
		for key, st := range byKey {
			row := value.KeyedRow(tupOf[rel][key], key)
			wasL, wasR := lt.ContainsKey(key), rt.ContainsKey(key)
			switch {
			case st.inL && !wasL:
				dl.At(rel).InsertRow(row)
			case !st.inL && wasL:
				dl.At(rel).DeleteRow(row)
			}
			switch {
			case st.inR && !wasR:
				dr.At(rel).InsertRow(row)
			case !st.inR && wasR:
				dr.At(rel).DeleteRow(row)
			}
		}
	}
	return dl, dr, nil
}
