package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"orchestra/internal/value"
)

// Change records: a persisted view's checkpoint between two full
// snapshots is the view's net change since the previous checkpoint —
// the rows each internal table gained or lost and the labeled nulls
// interned since. A restored snapshot followed by its change records,
// applied in order, is the view at the last record's checkpoint: the
// snapshot memoises a prefix of the update sequence and each record
// extends it.
//
// Format: magic "ORJ1", the spec fingerprint as a length-prefixed blob,
// uint32 interner count before the record, uint32 new Skolem terms and
// per term (in id order) fn and args key blobs as in a snapshot; then
// uint32 table count and per table (sorted by name) the name blob,
// uint32 change count and per change (sorted by key) one op byte ('+'
// insert, '-' delete) and the row's canonical key blob.

const changesMagic = "ORJ1"

// errChangesUntracked reports that a view has no change record to
// write: it was never tracked, or it changed in a way a row-level record
// cannot express (a cleared table, a recompile). The caller writes a
// full snapshot instead.
var errChangesUntracked = errors.New("core: view changes are not tracked since the last checkpoint")

// persistedTable reports whether a table belongs in snapshots and
// change records. Query workspaces (q$ tables) are always empty between
// operations and are rebuilt lazily.
func persistedTable(name string) bool {
	return !strings.HasPrefix(name, "q$")
}

// TrackChanges starts recording the view's net change from its current
// state, discarding what was recorded before. Call it after each
// checkpoint of a persisted view; a view that is never persisted never
// tracks, and its tables pay one nil check per mutation.
func (v *View) TrackChanges() {
	v.db.TrackChanges(persistedTable)
	v.skMark = v.sk.Len()
}

// PendingChanges returns the number of row changes and newly interned
// labeled nulls since TrackChanges. ok is false when WriteChanges would
// return errChangesUntracked.
func (v *View) PendingChanges() (n int, ok bool) {
	n, ok = v.db.ChangeCount()
	return n + v.sk.Len() - v.skMark, ok
}

// WriteChanges writes the view's change record since TrackChanges.
func (v *View) WriteChanges(w io.Writer) error {
	tables, ok := v.db.Changes()
	if !ok {
		return errChangesUntracked
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(changesMagic); err != nil {
		return err
	}
	if err := writeBlob(bw, []byte(v.spec.Fingerprint())); err != nil {
		return err
	}
	// A bufio.Writer's errors are sticky: Flush reports the first.
	n := v.sk.Len()
	writeU32(bw, uint32(v.skMark))
	writeU32(bw, uint32(n-v.skMark))
	for id := int64(v.skMark) + 1; id <= int64(n); id++ {
		fn, args, ok := v.sk.Resolve(id)
		if !ok {
			return fmt.Errorf("core: change record: missing Skolem id %d", id)
		}
		writeBlob(bw, []byte(fn))
		writeBlob(bw, args.EncodeKey(nil))
	}
	writeU32(bw, uint32(len(tables)))
	for _, tc := range tables {
		writeBlob(bw, []byte(tc.Table))
		writeU32(bw, uint32(len(tc.Rows)))
		for _, c := range tc.Rows {
			op := byte('-')
			if c.Insert {
				op = '+'
			}
			bw.WriteByte(op)
			writeBlob(bw, []byte(c.Row.Key))
		}
	}
	return bw.Flush()
}

// ApplyChanges applies a change record written by WriteChanges to a
// view in the state the record was taken against: a snapshot restored
// with RestoreView plus every earlier record of the same checkpoint
// sequence. Every insert must be new and every delete present, and the
// interned labeled nulls must continue the view's id sequence, so a
// record applied out of order fails instead of corrupting the view. A
// record taken under another spec fails with ErrSnapshotSpecMismatch.
func (v *View) ApplyChanges(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(changesMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("core: reading change record magic: %w", err)
	}
	if string(magic) != changesMagic {
		return fmt.Errorf("core: bad change record magic %q", magic)
	}
	fp, err := readBlob(br)
	if err != nil {
		return fmt.Errorf("core: reading change record spec fingerprint: %w", err)
	}
	if want := v.spec.Fingerprint(); string(fp) != want {
		return fmt.Errorf("%w (change record fingerprint %s, this spec is %s)", ErrSnapshotSpecMismatch, fp, want)
	}
	base, err := readU32(br)
	if err != nil {
		return err
	}
	if int(base) != v.sk.Len() {
		return fmt.Errorf("core: change record continues %d interned nulls, view has %d", base, v.sk.Len())
	}
	terms, err := readU32(br)
	if err != nil {
		return err
	}
	for i := uint32(1); i <= terms; i++ {
		if err := readSkolem(br, v.sk, int64(base+i)); err != nil {
			return fmt.Errorf("core: change record: %w", err)
		}
	}
	nTables, err := readU32(br)
	if err != nil {
		return err
	}
	for i := uint32(0); i < nTables; i++ {
		name, err := readBlob(br)
		if err != nil {
			return err
		}
		dst := v.db.Table(string(name))
		if dst == nil || !persistedTable(string(name)) {
			return fmt.Errorf("core: change record table %q not part of this spec", name)
		}
		nRows, err := readU32(br)
		if err != nil {
			return err
		}
		for j := uint32(0); j < nRows; j++ {
			op, err := br.ReadByte()
			if err != nil {
				return err
			}
			keyBytes, err := readBlob(br)
			if err != nil {
				return err
			}
			key := string(keyBytes)
			switch op {
			case '+':
				tup, err := value.DecodeTuple(key)
				if err != nil {
					return fmt.Errorf("core: change record table %s row %d: %w", name, j, err)
				}
				if len(tup) != dst.Arity() {
					return fmt.Errorf("core: change record table %s row %d: arity %d, want %d", name, j, len(tup), dst.Arity())
				}
				if !dst.InsertRow(value.KeyedRow(tup, key)) {
					return fmt.Errorf("core: change record inserts a row table %s already holds", name)
				}
			case '-':
				if _, ok := dst.DeleteKey(key); !ok {
					return fmt.Errorf("core: change record deletes a row table %s does not hold", name)
				}
			default:
				return fmt.Errorf("core: change record table %s row %d: bad op %q", name, j, op)
			}
		}
	}
	v.ev.InvalidateAllTransient()
	return nil
}

// readSkolem reads one Skolem term (fn and args key blobs) and interns
// it, checking that it receives the expected labeled-null id, so every
// persisted null id resolves to the same term.
func readSkolem(r io.Reader, sk *value.SkolemTable, id int64) error {
	fn, err := readBlob(r)
	if err != nil {
		return err
	}
	argsKey, err := readBlob(r)
	if err != nil {
		return err
	}
	args, err := value.DecodeTuple(string(argsKey))
	if err != nil {
		return fmt.Errorf("Skolem %d: %w", id, err)
	}
	if got := sk.Apply(string(fn), args); got.NullID() != id {
		return fmt.Errorf("Skolem ids diverged at %d", id)
	}
	return nil
}
