package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/schema"
	wlgen "orchestra/internal/workload"
)

// propagate-wire: the deployed topology in one process. A BusServer
// persisting to a log file listens on loopback; the first peer of a
// 4-peer chain publishes through an HTTP bus; a durable follower
// holding the last peer's view receives each publication over /watch,
// applies it, checkpoints the whole view, and answers the reader's
// query. One publisher, one outstanding publication.

// chainSpec is the confederation of the three write-path workloads: a
// chain with independently drawn attribute subsets, so mappings carry
// existentials and downstream instances fill with labeled nulls.
func chainSpec(sz sizes) (*core.Spec, error) {
	return newSpec(sz.peers, wlgen.TopologyChain, wlgen.AttrsRandom)
}

// propagateShape: four entries in, four out.
var propagateShape = pubShape{ins: 4, delOld: 4}

// chainInputs generates what the chain workloads share: the seeded
// chain, read at the last peer's view or the global one, with point
// probes at the far end of the chain for the first peer's base entries.
func chainInputs(sz sizes, seed int64, global bool) (*inputs, error) {
	spec, err := chainSpec(sz)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: spec, stream: newStream(spec, seed)}
	peers := peerNames(spec)
	if !global {
		in.owner = peers[len(peers)-1]
	}
	for _, p := range peers {
		in.seedPubs = append(in.seedPubs, in.stream.seedPubs(p, sz.base, sz.churn)...)
	}
	rel := farRelation(in)
	in.indexes = []indexDecl{{rel.Name, rel.Cols[0].Name}}
	for i, e := range in.stream.base[peers[0]] {
		q := pointProbe(rel, e.key)
		in.stream.recordQuery(q.text)
		if i%2 == 0 {
			in.hot = append(in.hot, q)
		} else {
			in.cold = append(in.cold, q)
		}
	}
	return in, nil
}

// farRelation is the relation the chain workloads probe: the first
// relation of the last peer, which a tuple published by the first peer
// reaches only through every mapping.
func farRelation(in *inputs) *schema.Relation {
	peers := peerNames(in.spec)
	return in.stream.peerRelations(peers[len(peers)-1])[0]
}

func propagateInputs(sz sizes, seed int64) (*inputs, error) {
	in, err := chainInputs(sz, seed, false)
	if err != nil {
		return nil, err
	}
	publisher := peerNames(in.spec)[0]
	in.pass = func() []core.Publication {
		log, _, _ := in.stream.publication(publisher, propagateShape)
		return []core.Publication{{Peer: publisher, Log: log}}
	}
	return in, nil
}

type propagateInst struct {
	in        *inputs
	publisher string
	probe     *schema.Relation
	srv       *orchestra.BusServer
	ts        *httptest.Server
	pub, fol  *orchestra.System
	stopPush  func()
	acked     logSum
}

func setupPropagate(ctx context.Context, sz sizes, seed int64, dir string) (instance, error) {
	in, err := propagateInputs(sz, seed)
	if err != nil {
		return nil, err
	}
	p := &propagateInst{in: in, publisher: peerNames(in.spec)[0], probe: farRelation(in)}
	p.srv = orchestra.NewBusServer()
	p.srv.ValidateAgainst(in.spec)
	if _, err := p.srv.PersistTo(filepath.Join(dir, "server.olg")); err != nil {
		return nil, err
	}
	p.ts = httptest.NewServer(p.srv)
	if p.pub, err = orchestra.New(in.spec, orchestra.WithBus(orchestra.NewHTTPBus(p.ts.URL))); err != nil {
		return nil, err
	}
	p.fol, err = orchestra.New(in.spec, append(in.indexOptions(),
		orchestra.WithBus(orchestra.NewHTTPBus(p.ts.URL)),
		orchestra.WithPersistence(filepath.Join(dir, "follower")))...)
	if err != nil {
		return nil, err
	}
	for _, sp := range in.seedPubs {
		if err := p.publish(ctx, sp.Peer, sp.Log); err != nil {
			return nil, err
		}
	}
	if _, err := p.fol.Exchange(ctx, in.owner); err != nil {
		return nil, err
	}
	if p.stopPush, err = p.fol.StartPush(ctx); err != nil {
		return nil, err
	}
	return p, warmUp(ctx, p, sz.warm)
}

func (p *propagateInst) publish(ctx context.Context, peer string, log core.EditLog) error {
	if err := p.pub.Publish(ctx, peer, log); err != nil {
		return err
	}
	p.acked.add(peer, log)
	return nil
}

func (p *propagateInst) cycle(ctx context.Context, rec *recorder) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	log, ins, del := p.in.stream.publication(p.publisher, propagateShape)
	newest := pointProbe(p.probe, ins[len(ins)-1].key)
	rec.attempted += 2
	start := time.Now()
	if err := p.publish(ctx, p.publisher, log); err != nil {
		rec.fail(err)
		rec.fail(err)
		return nil
	}
	rec.publish = append(rec.publish, time.Since(start))
	// The reader polls, as a reader without a notification channel
	// would; it yields between polls so the delivery and exchange
	// goroutines are never short of a processor.
	for {
		rows, err := p.fol.Query(ctx, p.in.owner, newest.text, true)
		if err != nil {
			rec.fail(fmt.Errorf("waiting for %s: %w", newest.text, err))
			return nil
		}
		if len(rows) == 1 {
			break
		}
		runtime.Gosched()
	}
	rec.visible = append(rec.visible, time.Since(start))
	rec.ops++
	// The publication is applied as one pass: with its newest tuple
	// visible, its other insertions must be too and its deletions gone.
	probeAll(ctx, rec, p.fol, p.in.owner, p.probe, append(del, ins[:len(ins)-1]...), p.in.stream.liveKeys(p.publisher))
	return nil
}

// probeAll times one point probe per entry and checks its answer: one
// row if the entry is live, none if it was deleted.
func probeAll(ctx context.Context, rec *recorder, sys *orchestra.System, owner string, rel *schema.Relation, entries []entry, live map[int64]bool) {
	for _, e := range entries {
		q, want := pointProbe(rel, e.key), 0
		if live[e.key] {
			want = 1
		}
		rec.timed(&rec.query, func() error {
			rows, err := sys.Query(ctx, owner, q.text, true)
			if err != nil {
				return err
			}
			return expectRows(q, rows, want)
		})
	}
}

func (p *propagateInst) check(ctx context.Context) error {
	return oracleCheck(ctx, p.fol, []string{p.in.owner}, p.acked)
}

func (p *propagateInst) inputs() *inputs { return p.in }

func (p *propagateInst) close() error {
	p.stopPush()
	err := p.fol.Close()
	if cerr := p.pub.Close(); err == nil {
		err = cerr
	}
	p.ts.Close()
	if cerr := p.srv.Close(); err == nil {
		err = cerr
	}
	return err
}
