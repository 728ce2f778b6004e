package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"orchestra/internal/storage"
	"orchestra/internal/value"
)

// View snapshots persist a view's auxiliary store between update
// exchanges (§4: "Between update exchange operations, it maintains copies
// of all relations, enabling future operations to be incremental"). A
// snapshot records the Skolem interner (so labeled-null identities
// survive) followed by every internal table.
//
// Format: magic "ORV3", the spec fingerprint as a length-prefixed blob
// (so restores against a different confederation fail loudly instead of
// resurrecting stale state — see Spec.Fingerprint and internal/evolve),
// uint32 Skolem count, then per Skolem term in id order: uint32 fn len,
// fn, uint32 args-key len, canonical args key; then a storage snapshot.
// An "ORV2" snapshot has the same layout but was taken when Rℓ held only
// the tuples the owner trusted; a later trust grant could not restore
// the rest, so it is refused like a snapshot of another spec.

const viewMagic = "ORV3"

// ErrSnapshotSpecMismatch marks a snapshot taken under a different spec
// than the one it is being restored against. Recovery paths that can
// rebuild from the publication history (the statestore open) match on
// it to discard the stale snapshot instead of failing.
var ErrSnapshotSpecMismatch = errors.New("core: snapshot was taken under a different spec")

// WriteSnapshot serializes the view's state to w.
func (v *View) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(viewMagic); err != nil {
		return err
	}
	if err := writeBlob(bw, []byte(v.spec.Fingerprint())); err != nil {
		return err
	}
	n := v.sk.Len()
	if err := writeU32(bw, uint32(n)); err != nil {
		return err
	}
	for id := int64(1); id <= int64(n); id++ {
		fn, args, ok := v.sk.Resolve(id)
		if !ok {
			return fmt.Errorf("core: snapshot: missing Skolem id %d", id)
		}
		if err := writeBlob(bw, []byte(fn)); err != nil {
			return err
		}
		if err := writeBlob(bw, args.EncodeKey(nil)); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Skip query workspaces so snapshots restore against a fresh view of
	// the same spec.
	return v.db.WriteSnapshotFiltered(w, persistedTable)
}

// RestoreView rebuilds a view from a snapshot produced by WriteSnapshot
// against the same Spec, owner and options. The restored view is ready
// for further incremental exchanges.
func RestoreView(spec *Spec, owner string, opts Options, r io.Reader) (*View, error) {
	v, err := NewView(spec, owner, opts)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(viewMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading snapshot magic: %w", err)
	}
	if string(magic) == "ORCV" {
		return nil, fmt.Errorf("core: snapshot predates the spec-fingerprint format (magic ORCV); discard it and re-exchange from the publication history")
	}
	if string(magic) == "ORV2" {
		return nil, fmt.Errorf("%w: the snapshot predates storing distrusted local contributions (magic ORV2); re-exchange from the publication history instead of restoring",
			ErrSnapshotSpecMismatch)
	}
	if string(magic) != viewMagic {
		return nil, fmt.Errorf("core: bad view snapshot magic %q", magic)
	}
	fp, err := readBlob(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot spec fingerprint: %w", err)
	}
	if want := spec.Fingerprint(); string(fp) != want {
		return nil, fmt.Errorf("%w (snapshot fingerprint %s, this spec is %s); re-exchange from the publication history instead of restoring",
			ErrSnapshotSpecMismatch, fp, want)
	}
	n, err := readU32(br)
	if err != nil {
		return nil, err
	}
	// Re-intern in id order so every persisted null id resolves to the
	// same term.
	for id := int64(1); id <= int64(n); id++ {
		if err := readSkolem(br, v.sk, id); err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
	}
	loaded, err := storage.ReadSnapshot(br)
	if err != nil {
		return nil, err
	}
	// Move the loaded rows into the view's (already created,
	// engine-bound) tables: ReadSnapshot keyed every row once, so the
	// keys and tuples are shared rather than encoded and cloned again.
	for _, name := range loaded.Names() {
		dst := v.db.Table(name)
		if dst == nil {
			return nil, fmt.Errorf("core: snapshot table %q not part of this spec", name)
		}
		src := loaded.Table(name)
		if src.Arity() != dst.Arity() {
			return nil, fmt.Errorf("core: snapshot table %q arity %d, spec expects %d",
				name, src.Arity(), dst.Arity())
		}
		src.EachRow(func(row value.Row) bool {
			dst.InsertRow(row)
			return true
		})
	}
	v.ev.InvalidateAllTransient()
	return v, nil
}

func writeBlob(w io.Writer, b []byte) error {
	if err := writeU32(w, uint32(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readBlob(r io.Reader) ([]byte, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func writeU32(w io.Writer, n uint32) error {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], n)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(buf[:]), nil
}
