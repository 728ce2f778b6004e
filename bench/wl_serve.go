package main

import (
	"context"
	"math/rand"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/schema"
	wlgen "orchestra/internal/workload"
)

// serve-mixed: a 4-peer complete confederation with shared attributes
// (every mapping is a full tgd, every relation pair joins), the global
// view with secondary indexes declared on the probed columns, an
// in-memory bus. One reader issues queries back to back: four in five
// from a hot set that fits the view's 256-entry query cache, one in
// five from a cold set that does not. Every sz.writeEvery-th operation
// is a one-entry write — Publish, Exchange, and a probe that must see
// it — from the same goroutine; it invalidates every cached answer over
// the relations it touched, which on this topology is all of them.

func serveSpec(sz sizes) (*core.Spec, error) {
	return newSpec(sz.peers, wlgen.TopologyComplete, wlgen.AttrsShared)
}

// serveWrite generates the w-th write. Peers take turns, and each
// peer's own writes alternate between re-inserting one entry and
// deleting one.
func serveWrite(in *inputs, peers []string, w int) (core.Publication, []entry, []entry) {
	sh := pubShape{ins: 1}
	if w/len(peers)%2 == 1 {
		sh = pubShape{delOld: 1}
	}
	peer := peers[w%len(peers)]
	log, ins, del := in.stream.publication(peer, sh)
	return core.Publication{Peer: peer, Log: log}, ins, del
}

func serveInputs(sz sizes, seed int64) (*inputs, error) {
	spec, err := serveSpec(sz)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: spec, stream: newStream(spec, seed), owner: ""}
	peers := peerNames(spec)
	var keys []int64
	for _, p := range peers {
		in.seedPubs = append(in.seedPubs, in.stream.seedPubs(p, sz.base, sz.churn)...)
		for _, e := range in.stream.base[p] {
			keys = append(keys, e.key)
		}
	}
	// Indexes are declared on every column the queries probe: each
	// relation's key, and the second relation's side of each join.
	rels := spec.Universe.Relations()
	for _, r := range rels {
		in.indexes = append(in.indexes, indexDecl{r.Name, r.Cols[0].Name})
	}
	// A quarter of the hot set is shared-attribute joins between
	// neighbouring relations, the rest point probes; the cold set is
	// point probes of distinct keys, spread over the relations.
	for i := 0; i+1 < len(rels) && len(in.hot) < sz.hot/4; i++ {
		if q, ok := sharedJoin(rels[i], rels[i+1]); ok {
			in.hot = append(in.hot, q)
			in.indexes = append(in.indexes, indexDecl{rels[i+1].Name, q.joinCol})
		}
	}
	for i := 0; len(in.hot) < sz.hot; i++ {
		in.hot = append(in.hot, pointProbe(rels[i%len(rels)], keys[i%len(keys)]))
	}
	for i := 0; i < sz.cold; i++ {
		in.cold = append(in.cold, pointProbe(rels[(i+1)%len(rels)], keys[i%len(keys)]))
	}
	for _, q := range append(append([]query(nil), in.hot...), in.cold...) {
		in.stream.recordQuery(q.text)
	}
	writes := 0
	in.pass = func() []core.Publication {
		p, _, _ := serveWrite(in, peers, writes)
		writes++
		return []core.Publication{p}
	}
	return in, nil
}

// serveTraffic draws serve-mixed's operations; the end-to-end and the
// stepped run execute the same sequence against different machinery.
type serveTraffic struct {
	sz    sizes
	in    *inputs
	peers []string
	probe *schema.Relation
	rng   *rand.Rand
	n     int // operations so far
	w     int // writes so far
}

func newServeTraffic(sz sizes, in *inputs, seed int64) *serveTraffic {
	return &serveTraffic{sz: sz, in: in, peers: peerNames(in.spec),
		probe: in.spec.Universe.Relations()[0], rng: rand.New(rand.NewSource(seed))}
}

// isWrite advances to the next operation and says which kind it is.
func (g *serveTraffic) isWrite() bool {
	g.n++
	return g.n%g.sz.writeEvery == 0
}

// nextRead draws the next query and its expected answer size: a point
// probe of a base key has one row, a shared-attribute join one row per
// live entry (attribute values are 63-bit hashes, distinct per entry).
func (g *serveTraffic) nextRead() (query, int) {
	q := g.in.hot[g.rng.Intn(len(g.in.hot))]
	if g.rng.Intn(5) == 0 {
		q = g.in.cold[g.rng.Intn(len(g.in.cold))]
	}
	if q.joinCol != "" {
		return q, g.in.stream.liveEntries()
	}
	return q, 1
}

// nextWrite generates the next write, and the probe that must see it
// with its expected answer size.
func (g *serveTraffic) nextWrite() (core.Publication, query, int) {
	pub, ins, del := serveWrite(g.in, g.peers, g.w)
	g.w++
	if len(ins) > 0 {
		return pub, pointProbe(g.probe, ins[0].key), 1
	}
	return pub, pointProbe(g.probe, del[0].key), 0
}

type serveInst struct {
	*serveTraffic
	sys   *orchestra.System
	acked logSum
}

func setupServe(ctx context.Context, sz sizes, seed int64, dir string) (instance, error) {
	in, err := serveInputs(sz, seed)
	if err != nil {
		return nil, err
	}
	sys, err := orchestra.New(in.spec, in.indexOptions()...)
	if err != nil {
		return nil, err
	}
	s := &serveInst{serveTraffic: newServeTraffic(sz, in, seed), sys: sys}
	for _, p := range in.seedPubs {
		if err := sys.Publish(ctx, p.Peer, p.Log); err != nil {
			return nil, err
		}
		s.acked.add(p.Peer, p.Log)
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		return nil, err
	}
	return s, warmUp(ctx, s, sz.warm)
}

// cycle is one operation: a read, or on every writeEvery-th a write.
func (s *serveInst) cycle(ctx context.Context, rec *recorder) error {
	if s.isWrite() {
		s.write(ctx, rec)
		return nil
	}
	q, want := s.nextRead()
	if rec.timed(&rec.query, func() error {
		rows, err := s.sys.Query(ctx, "", q.text, true)
		if err != nil {
			return err
		}
		return expectRows(q, rows, want)
	}) {
		rec.ops++
	}
	return nil
}

func (s *serveInst) write(ctx context.Context, rec *recorder) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	pub, q, want := s.nextWrite()
	rec.attempted += 2
	start := time.Now()
	err := s.sys.Publish(ctx, pub.Peer, pub.Log)
	published := time.Since(start)
	if err != nil {
		rec.fail(err)
		rec.fail(err)
		return
	}
	s.acked.add(pub.Peer, pub.Log)
	rec.publish = append(rec.publish, published)
	if _, err = s.sys.Exchange(ctx, ""); err == nil {
		var rows []orchestra.Tuple
		if rows, err = s.sys.Query(ctx, "", q.text, true); err == nil {
			err = expectRows(q, rows, want)
		}
	}
	if err != nil {
		rec.fail(err)
		return
	}
	rec.visible = append(rec.visible, time.Since(start))
}

func (s *serveInst) check(ctx context.Context) error {
	return oracleCheck(ctx, s.sys, []string{""}, s.acked)
}

func (s *serveInst) inputs() *inputs { return s.in }
func (s *serveInst) close() error    { return s.sys.Close() }
