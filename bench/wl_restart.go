package main

import (
	"context"
	"fmt"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/schema"
)

// restart-cycle: a durable peer over the embedded sharded bus. Set-up
// builds a state directory holding sz.history publications and a
// checkpointed global view. Each cycle opens the directory, exchanges
// the publications the previous cycle left pending, answers a query
// that must contain the newest of them, publishes sz.pubs small
// publications, and closes without exchanging them — so the next open
// again has a pending run to replay.

func restartInputs(sz sizes, seed int64) (*inputs, error) {
	in, err := chainInputs(sz, seed, true)
	if err != nil {
		return nil, err
	}
	peers, n := peerNames(in.spec), 0
	for ; n < sz.history; n++ {
		p, _, _ := restartPublication(in, peers, n)
		in.history = append(in.history, p)
	}
	in.pass = func() []core.Publication {
		run := make([]core.Publication, sz.pubs)
		for i := range run {
			run[i], _, _ = restartPublication(in, peers, n)
			n++
		}
		return run
	}
	return in, nil
}

// restartPublication generates the n-th publication: one entry in, one
// out. Peers take turns, so the history spreads over every shard of the
// bus.
func restartPublication(in *inputs, peers []string, n int) (core.Publication, []entry, []entry) {
	peer := peers[n%len(peers)]
	log, ins, del := in.stream.publication(peer, pubShape{ins: 1, delOld: 1})
	return core.Publication{Peer: peer, Log: log}, ins, del
}

type restartInst struct {
	sz    sizes
	in    *inputs
	peers []string
	probe *schema.Relation
	opts  []orchestra.Option
	acked logSum
	n     int // publications generated so far
	// pending are the first peer's entries touched by the publications
	// the last cycle left unexchanged, the newest insertion last.
	pending []entry
}

func setupRestart(ctx context.Context, sz sizes, seed int64, dir string) (instance, error) {
	in, err := restartInputs(sz, seed)
	if err != nil {
		return nil, err
	}
	r := &restartInst{sz: sz, in: in, peers: peerNames(in.spec), probe: farRelation(in), n: sz.history}
	r.opts = append(in.indexOptions(), orchestra.WithPersistence(dir))
	sys, err := orchestra.New(in.spec, r.opts...)
	if err != nil {
		return nil, err
	}
	for _, p := range append(append([]core.Publication(nil), in.seedPubs...), in.history...) {
		if err := r.publish(ctx, sys, p); err != nil {
			return nil, err
		}
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		return nil, err
	}
	if err := r.publishPending(ctx, sys, &recorder{}); err != nil {
		return nil, err
	}
	if err := sys.Close(); err != nil {
		return nil, err
	}
	return r, warmUp(ctx, r, sz.warm)
}

func (r *restartInst) publish(ctx context.Context, sys *orchestra.System, p core.Publication) error {
	if err := sys.Publish(ctx, p.Peer, p.Log); err != nil {
		return err
	}
	r.acked.add(p.Peer, p.Log)
	return nil
}

// publishPending publishes the cycle's sz.pubs publications and
// remembers which of the first peer's entries they touched.
func (r *restartInst) publishPending(ctx context.Context, sys *orchestra.System, rec *recorder) error {
	r.pending = nil
	for i := 0; i < r.sz.pubs; i++ {
		p, ins, del := restartPublication(r.in, r.peers, r.n)
		r.n++
		if p.Peer == r.peers[0] {
			r.pending = append(append(r.pending, del...), ins...)
		}
		if !rec.timed(&rec.publish, func() error { return r.publish(ctx, sys, p) }) {
			return rec.firstErr
		}
	}
	if len(r.pending) == 0 {
		return fmt.Errorf("restart-cycle: %d publications per cycle never reach the first of %d peers", r.sz.pubs, len(r.peers))
	}
	return nil
}

func (r *restartInst) cycle(ctx context.Context, rec *recorder) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	newest := pointProbe(r.probe, r.pending[len(r.pending)-1].key)
	var sys *orchestra.System
	recovered := rec.timed(&rec.visible, func() (err error) {
		if sys, err = orchestra.New(r.in.spec, r.opts...); err != nil {
			return err
		}
		if _, err = sys.Exchange(ctx, ""); err != nil {
			return err
		}
		rows, err := sys.Query(ctx, "", newest.text, true)
		if err != nil {
			return err
		}
		return expectRows(newest, rows, 1)
	})
	if sys == nil {
		return rec.firstErr
	}
	if recovered {
		rec.ops++
		probeAll(ctx, rec, sys, "", r.probe, r.pending[:len(r.pending)-1], r.in.stream.liveKeys(r.peers[0]))
	}
	err := r.publishPending(ctx, sys, rec)
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// check reopens the directory once more: every acknowledged publication
// must be fetchable from the reopened bus, and the caught-up view must
// equal the serial replay.
func (r *restartInst) check(ctx context.Context) error {
	sys, err := orchestra.New(r.in.spec, r.opts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	if _, err := sys.Exchange(ctx, ""); err != nil {
		return err
	}
	return oracleCheck(ctx, sys, []string{""}, r.acked)
}

func (r *restartInst) inputs() *inputs { return r.in }
func (r *restartInst) close() error    { return nil }
