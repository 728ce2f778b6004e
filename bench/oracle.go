package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/storage"
	"orchestra/internal/value"
)

// The oracle is the simplest path through the program: a fresh
// core.View fed the committed publications serially, one maintenance
// pass per publication (core.ExchangeInto), no coalescing, no
// scheduler, no push, no persistence. Whatever the timed section did to
// reach its state, it must have reached this one.

// viewDigest reduces a view to what the oracle comparison requires: a
// hash per relation of the curated instance and of the rejection table,
// rows rendered with labeled nulls shown through their Skolem structure
// (null ids depend on derivation order, their structure does not), plus
// the total number of provenance rows.
type viewDigest map[string]uint64

func digestView(v *core.View) viewDigest {
	d := make(viewDigest)
	nulls := nullSigs{sk: v.Skolems(), memo: make(map[int64]uint64)}
	hashTable := func(name string, t *storage.Table) {
		rows := make([]string, 0, t.Len())
		for _, row := range t.AllRows() {
			rows = append(rows, string(nulls.encode(nil, row.Tuple)))
		}
		sort.Strings(rows)
		h := fnv.New64a()
		for _, s := range rows {
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
		d[name] = h.Sum64()
	}
	for _, rel := range v.Spec().Universe.Relations() {
		hashTable("instance of "+rel.Name, v.Instance(rel.Name))
		hashTable("rejections of "+rel.Name, v.RejectTable(rel.Name))
	}
	for _, name := range v.DB().Names() {
		if strings.HasPrefix(name, "p$") {
			d["number of provenance rows"] += uint64(v.DB().Table(name).Len())
		}
	}
	return d
}

// nullSigs renders labeled nulls by structure. Spelling a Skolem term
// out (SkolemTable.Describe) is exponential in the length of the
// mapping chain it was derived along, so a null is reduced to a hash of
// its function and argument signatures, memoized per null id.
type nullSigs struct {
	sk   *value.SkolemTable
	memo map[int64]uint64
}

func (n nullSigs) encode(dst []byte, t value.Tuple) []byte {
	for _, v := range t {
		if !v.IsNull() {
			dst = value.Tuple{v}.EncodeKey(dst)
			continue
		}
		dst = append(dst, 'N')
		dst = binary.LittleEndian.AppendUint64(dst, n.sig(v.NullID()))
	}
	return dst
}

func (n nullSigs) sig(id int64) uint64 {
	if s, ok := n.memo[id]; ok {
		return s
	}
	fn, args, ok := n.sk.Resolve(id)
	if !ok {
		return uint64(id)
	}
	h := fnv.New64a()
	h.Write(n.encode([]byte(fn), args))
	s := h.Sum64()
	n.memo[id] = s
	return s
}

// diff names the first entry on which two digests disagree.
func (d viewDigest) diff(want viewDigest) error {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if d[name] != want[name] {
			return fmt.Errorf("the %s differs from the serial replay's", name)
		}
	}
	return nil
}

// logSum fingerprints a publication sequence: peers and edit logs, in
// order, each publication chained onto the sum of those before it.
type logSum struct {
	sum uint64
	n   int
}

func (s *logSum) add(peer string, log core.EditLog) {
	buf := binary.LittleEndian.AppendUint64(nil, s.sum)
	buf = append(buf, peer...)
	for _, e := range log {
		if e.Insert {
			buf = append(buf, '+')
		} else {
			buf = append(buf, '-')
		}
		buf = append(buf, e.Rel...)
		buf = e.Tuple.EncodeKey(buf)
	}
	h := fnv.New64a()
	h.Write(buf)
	s.sum = h.Sum64()
	s.n++
}

// oracleCompare replays everything on the bus into a fresh view per
// owner and requires the given views to match. acked is the fingerprint
// of the publications the workload saw acknowledged, in order (one
// publisher at a time, so bus order is acknowledgement order): the bus
// must hold exactly those — none lost, duplicated or reordered.
func oracleCompare(ctx context.Context, spec *core.Spec, bus core.BusReader, acked logSum, views map[string]*core.View) error {
	deltas, _, err := bus.Fetch(ctx, core.Cursor{})
	if err != nil {
		return fmt.Errorf("oracle: fetching the committed log: %w", err)
	}
	var onBus logSum
	mem := core.NewMemoryBus()
	for _, d := range deltas {
		onBus.add(d.Pub.Peer, d.Pub.Log)
		if err := mem.Append(ctx, d.Pub.Peer, d.Pub.Log); err != nil {
			return err
		}
	}
	if onBus != acked {
		return fmt.Errorf("oracle: the bus holds %d publications, which are not the %d acknowledged ones in order", onBus.n, acked.n)
	}
	for owner, got := range views {
		want, err := core.NewView(spec, owner, core.Options{})
		if err != nil {
			return err
		}
		if _, _, err := core.ExchangeInto(ctx, mem, want, core.Cursor{}, core.DeleteProvenance); err != nil {
			return fmt.Errorf("oracle: serial replay for view %q: %w", owner, err)
		}
		if err := digestView(got).diff(digestView(want)); err != nil {
			return fmt.Errorf("oracle: view %q: %w", owner, err)
		}
	}
	return nil
}

// oracleCheck is oracleCompare for a System's views, which it reads
// through the snapshot surface.
func oracleCheck(ctx context.Context, sys *orchestra.System, owners []string, acked logSum) error {
	views := make(map[string]*core.View, len(owners))
	for _, owner := range owners {
		var snap bytes.Buffer
		if err := sys.WriteSnapshot(owner, &snap); err != nil {
			return err
		}
		v, err := core.RestoreView(sys.Spec(), owner, core.Options{}, &snap)
		if err != nil {
			return err
		}
		views[owner] = v
	}
	return oracleCompare(ctx, sys.Spec(), sys.Bus(), acked, views)
}
