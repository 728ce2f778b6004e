package main

import (
	"context"
	"fmt"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/schema"
)

// exchange-backlog: a 16-peer chain with independently drawn attribute
// subsets (so mappings carry existentials and views fill with labeled
// nulls), an in-memory bus, no persistence, the default scheduler and
// coalescing. Each round every peer publishes sz.pubs publications,
// then one ExchangeAll brings all 16 peer views up to date and a query
// at the far end of the chain must see the first peer's newest tuple.

// backlogShape is the k-th publication of a peer's round. Each carries
// four insertions and four deletions, so the instance is stationary;
// from the second publication on one deletion takes back the previous
// publication's newest tuple, a pair the coalesced pass cancels before
// any propagation runs.
func backlogShape(k int) pubShape {
	if k == 0 {
		return pubShape{ins: 4, delOld: 4}
	}
	return pubShape{ins: 4, delOld: 3, delNew: 1}
}

// backlogRound generates one round's publications, in publication
// order, and the first peer's entries they touched, its newest
// insertion — the one with the longest way to go — last.
func backlogRound(st *stream, peers []string, pubs int) (round []core.Publication, touched []entry) {
	for k := 0; k < pubs; k++ {
		for i, peer := range peers {
			log, ins, del := st.publication(peer, backlogShape(k))
			round = append(round, core.Publication{Peer: peer, Log: log})
			if i == 0 {
				touched = append(append(touched, del...), ins...)
			}
		}
	}
	return round, touched
}

func backlogInputs(sz sizes, seed int64) (*inputs, error) {
	in, err := chainInputs(sz, seed, false)
	if err != nil {
		return nil, err
	}
	in.pass = func() []core.Publication {
		round, _ := backlogRound(in.stream, peerNames(in.spec), sz.pubs)
		return round
	}
	return in, nil
}

func peerNames(spec *core.Spec) []string {
	peers := spec.Universe.Peers()
	out := make([]string, len(peers))
	for i, p := range peers {
		out[i] = p.Name
	}
	return out
}

type backlogInst struct {
	sz    sizes
	in    *inputs
	sys   *orchestra.System
	peers []string
	probe *schema.Relation
	acked logSum
}

func setupBacklog(ctx context.Context, sz sizes, seed int64, dir string) (instance, error) {
	in, err := backlogInputs(sz, seed)
	if err != nil {
		return nil, err
	}
	sys, err := orchestra.New(in.spec)
	if err != nil {
		return nil, err
	}
	b := &backlogInst{sz: sz, in: in, sys: sys, peers: peerNames(in.spec), probe: farRelation(in)}
	for _, p := range in.seedPubs {
		if err := b.publish(ctx, p); err != nil {
			return nil, err
		}
	}
	if _, err := sys.ExchangeAll(ctx); err != nil {
		return nil, err
	}
	return b, warmUp(ctx, b, sz.warm)
}

// warmUp runs untimed cycles so caches, indexes and lazily built state
// exist before the first timed operation.
func warmUp(ctx context.Context, inst instance, cycles int) error {
	rec := &recorder{}
	for i := 0; i < cycles; i++ {
		if err := inst.cycle(ctx, rec); err != nil {
			return err
		}
	}
	if rec.firstErr != nil {
		return fmt.Errorf("warm-up: %w", rec.firstErr)
	}
	return nil
}

func (b *backlogInst) publish(ctx context.Context, p core.Publication) error {
	if err := b.sys.Publish(ctx, p.Peer, p.Log); err != nil {
		return err
	}
	b.acked.add(p.Peer, p.Log)
	return nil
}

func (b *backlogInst) cycle(ctx context.Context, rec *recorder) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	round, touched := backlogRound(b.in.stream, b.peers, b.sz.pubs)
	for _, p := range round {
		rec.timed(&rec.publish, func() error { return b.publish(ctx, p) })
	}
	newest := pointProbe(b.probe, touched[len(touched)-1].key)
	rec.timed(&rec.visible, func() error {
		stats, err := b.sys.ExchangeAll(ctx)
		if err != nil {
			return err
		}
		for _, s := range stats {
			rec.ops += s.EditsIn
		}
		rows, err := b.sys.Query(ctx, b.in.owner, newest.text, true)
		if err != nil {
			return err
		}
		return expectRows(newest, rows, 1)
	})
	probeAll(ctx, rec, b.sys, b.in.owner, b.probe, touched[:len(touched)-1], b.in.stream.liveKeys(b.peers[0]))
	return nil
}

// check replays the log for both ends of the chain; the serial replay
// of all 16 views would take longer than the run.
func (b *backlogInst) check(ctx context.Context) error {
	return oracleCheck(ctx, b.sys, []string{b.peers[0], b.peers[len(b.peers)-1]}, b.acked)
}

func (b *backlogInst) inputs() *inputs { return b.in }
func (b *backlogInst) close() error    { return b.sys.Close() }
