package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/exchange"
	"orchestra/internal/logstore"
	"orchestra/internal/schema"
	"orchestra/internal/share"
	"orchestra/internal/statestore"
)

// The stepped run rebuilds each workload without the orchestra facade:
// the harness itself calls each layer's public functions in the order
// the facade would, on the same generated inputs, with a span around
// every call. What the facade adds on top — goroutine hand-offs, locks,
// its own bookkeeping — is then the difference between the stepped and
// the end-to-end number of the same quantity (trace_overhead), and the
// spans say which layer each stepped millisecond belongs to.

// stepper is what the four stepped workloads share.
type stepper struct {
	in    *inputs
	tr    *tracer
	probe *schema.Relation
	acked logSum
	op    int
}

func newStepper(in *inputs, tr *tracer) stepper {
	return stepper{in: in, tr: tr, probe: farRelation(in)}
}

// root opens the next operation's root span.
func (s *stepper) root(name string) (id, op int) {
	s.op++
	return s.tr.begin(name, harnessLayer, -1, s.op), s.op
}

// apply runs one maintenance pass as a core span and files what its
// statistics say about the layers underneath it as child spans.
func (s *stepper) apply(name string, parent, op int, pass func() (core.ApplyStats, error)) error {
	return s.tr.call(name, "core", parent, op, func(id int) error {
		stats, err := pass()
		s.tr.within("bus fetch (ApplyStats.FetchNS)", "logstore", id, time.Duration(stats.FetchNS))
		s.tr.within("fixpoints (ApplyStats.Engine.EvalNS)", "engine", id, time.Duration(stats.Engine.EvalNS))
		return err
	})
}

// query runs one View.Query as a core span and checks its answer size.
func (s *stepper) query(ctx context.Context, v *core.View, q query, want, parent, op int) error {
	return s.tr.call("core.View.Query", "core", parent, op, func(int) error {
		rows, err := v.Query(ctx, q.text, true)
		if err != nil {
			return err
		}
		return expectRows(q, rows, want)
	})
}

// checkpoint saves a view as a statestore span, with the time spent
// inside the view's own snapshot writer as a storage child.
func (s *stepper) checkpoint(st *statestore.Store, v *core.View, cursor core.Cursor, parent, op int) error {
	return s.tr.call("statestore.Store.SaveView", "statestore", parent, op, func(id int) error {
		var encode time.Duration
		err := st.SaveView(v.Owner(), cursor.Total(), cursor.String(), v.Spec().Fingerprint(), func(w io.Writer) error {
			start := time.Now()
			defer func() { encode = time.Since(start) }()
			return v.WriteSnapshot(w)
		})
		s.tr.within("core.View.WriteSnapshot", "storage", id, encode)
		return err
	})
}

// seedView applies the seed publications already on bus to a new view.
func (s *stepper) seedView(ctx context.Context, bus core.PublicationBus, owner string) (*core.View, core.Cursor, error) {
	v, err := s.in.newView(owner)
	if err != nil {
		return nil, core.Cursor{}, err
	}
	cursor, _, err := core.ExchangeCoalesced(ctx, bus, v, core.Cursor{}, core.DeleteProvenance)
	return v, cursor, err
}

func (s *stepper) append(ctx context.Context, bus core.BusAppender, p core.Publication) error {
	if err := core.PublishTo(ctx, bus, s.in.spec, p.Peer, p.Log); err != nil {
		return err
	}
	s.acked.add(p.Peer, p.Log)
	return nil
}

func (s *stepper) inputs() *inputs { return s.in }

// finish closes an operation: it ends the root span and files the
// operation's samples, or fails it.
func (s *stepper) finish(rec *recorder, root int, err error, file func()) {
	s.tr.end(root)
	rec.attempted++
	if err != nil {
		rec.fail(err)
		return
	}
	file()
}

// ---- propagate-wire ----

type steppedPropagateInst struct {
	stepper
	publisher string
	store     *logstore.Store
	ts        *httptest.Server
	bus       *share.Bus
	deltas    <-chan core.Delta
	cancel    core.CancelFunc
	view      *core.View
	cursor    core.Cursor
	state     *statestore.Store
}

func steppedPropagate(ctx context.Context, sz sizes, seed int64, dir string, tr *tracer) (instance, error) {
	in, err := propagateInputs(sz, seed)
	if err != nil {
		return nil, err
	}
	p := &steppedPropagateInst{stepper: newStepper(in, tr), publisher: peerNames(in.spec)[0]}
	// The wire and the server's log are separate layers here: a server
	// that does not persist, and the log store the deployed server
	// would append to before acknowledging.
	if p.store, err = logstore.Open(filepath.Join(dir, "server.olg")); err != nil {
		return nil, err
	}
	srv := share.NewServer()
	srv.SetValidate(share.SpecValidator(in.spec))
	p.ts = httptest.NewServer(srv)
	p.bus = share.NewBus(p.ts.URL)
	for _, sp := range in.seedPubs {
		if err := p.store.AppendTraced(sp.Peer, sp.Log, ""); err != nil {
			return nil, err
		}
		if err := p.append(ctx, p.bus, sp); err != nil {
			return nil, err
		}
	}
	if p.view, p.cursor, err = p.seedView(ctx, p.bus, in.owner); err != nil {
		return nil, err
	}
	if p.state, err = statestore.Open(filepath.Join(dir, "follower")); err != nil {
		return nil, err
	}
	if p.deltas, p.cancel, err = p.bus.Subscribe(ctx, p.cursor); err != nil {
		return nil, err
	}
	return p, warmUp(ctx, p, sz.warm)
}

func (p *steppedPropagateInst) cycle(ctx context.Context, rec *recorder) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	log, ins, _ := p.in.stream.publication(p.publisher, propagateShape)
	pub := core.Publication{Peer: p.publisher, Log: log}
	newest := pointProbe(p.probe, ins[len(ins)-1].key)
	root, op := p.root("publish to visible")
	start := time.Now()
	var published time.Duration
	err := func() error {
		if err := p.tr.call("logstore.Store.AppendTraced", "logstore", root, op, func(int) error {
			return p.store.AppendTraced(pub.Peer, pub.Log, "")
		}); err != nil {
			return err
		}
		if err := p.tr.call("share.Bus.Append", "share", root, op, func(int) error {
			return p.append(ctx, p.bus, pub)
		}); err != nil {
			return err
		}
		published = time.Since(start)
		var d core.Delta
		if err := p.tr.call("share.Bus.Subscribe delivery", "share", root, op, func(int) error {
			select {
			case d = <-p.deltas:
				return nil
			case <-ctx.Done():
				return fmt.Errorf("waiting for the pushed delta: %w", ctx.Err())
			}
		}); err != nil {
			return err
		}
		if err := p.apply("core.ExchangeDeltas", root, op, func() (core.ApplyStats, error) {
			next, stats, handled, err := core.ExchangeDeltas(ctx, p.view, p.cursor, []core.Delta{d}, core.DeleteProvenance)
			if err == nil && !handled {
				err = fmt.Errorf("pushed delta %s/%d does not follow cursor %s", d.Shard, d.Pos, p.cursor)
			}
			if err == nil {
				p.cursor = next
			}
			return stats, err
		}); err != nil {
			return err
		}
		if err := p.checkpoint(p.state, p.view, p.cursor, root, op); err != nil {
			return err
		}
		return p.query(ctx, p.view, newest, 1, root, op)
	}()
	p.finish(rec, root, err, func() {
		rec.publish = append(rec.publish, published)
		rec.visible = append(rec.visible, time.Since(start))
		rec.ops++
	})
	return nil
}

func (p *steppedPropagateInst) check(ctx context.Context) error {
	return oracleCompare(ctx, p.in.spec, p.bus, p.acked, map[string]*core.View{p.in.owner: p.view})
}

func (p *steppedPropagateInst) close() error {
	p.cancel()
	p.ts.Close()
	err := p.state.Close()
	if cerr := p.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- exchange-backlog ----

type steppedBacklogInst struct {
	stepper
	sz      sizes
	peers   []string
	bus     *core.MemoryBus
	sched   *exchange.Scheduler[core.ApplyStats]
	views   []*core.View
	cursors []core.Cursor
}

func steppedBacklog(ctx context.Context, sz sizes, seed int64, dir string, tr *tracer) (instance, error) {
	in, err := backlogInputs(sz, seed)
	if err != nil {
		return nil, err
	}
	b := &steppedBacklogInst{stepper: newStepper(in, tr), sz: sz, peers: peerNames(in.spec),
		bus: core.NewMemoryBus(), sched: exchange.NewScheduler[core.ApplyStats](0)}
	for _, sp := range in.seedPubs {
		if err := b.append(ctx, b.bus, sp); err != nil {
			return nil, err
		}
	}
	b.views, b.cursors = make([]*core.View, len(b.peers)), make([]core.Cursor, len(b.peers))
	for i, peer := range b.peers {
		if b.views[i], b.cursors[i], err = b.seedView(ctx, b.bus, peer); err != nil {
			return nil, err
		}
	}
	return b, warmUp(ctx, b, sz.warm)
}

func (b *steppedBacklogInst) cycle(ctx context.Context, rec *recorder) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	round, touched := backlogRound(b.in.stream, b.peers, b.sz.pubs)
	root, op := b.root("round")
	var (
		published []time.Duration
		visible   time.Duration
		edits     int
	)
	err := func() error {
		for _, pub := range round {
			start := time.Now()
			if err := b.tr.call("core.PublishTo", "core", root, op, func(int) error {
				return b.append(ctx, b.bus, pub)
			}); err != nil {
				return err
			}
			published = append(published, time.Since(start))
		}
		start := time.Now()
		if err := b.tr.call("exchange.Scheduler.Run", "exchange", root, op, func(run int) error {
			tasks := make([]exchange.Task[core.ApplyStats], len(b.views))
			for i, v := range b.views {
				tasks[i] = exchange.Task[core.ApplyStats]{Owner: b.peers[i], Run: func(ctx context.Context) (stats core.ApplyStats, err error) {
					err = b.apply("core.ExchangeCoalesced", run, op, func() (core.ApplyStats, error) {
						var next core.Cursor
						next, stats, err = core.ExchangeCoalesced(ctx, b.bus, v, b.cursors[i], core.DeleteProvenance)
						if err == nil {
							b.cursors[i] = next
						}
						return stats, err
					})
					return stats, err
				}}
			}
			out, err := b.sched.Run(ctx, tasks)
			for _, stats := range out {
				edits += stats.EditsIn
			}
			return err
		}); err != nil {
			return err
		}
		err := b.query(ctx, b.views[len(b.views)-1], pointProbe(b.probe, touched[len(touched)-1].key), 1, root, op)
		visible = time.Since(start)
		return err
	}()
	b.finish(rec, root, err, func() {
		rec.publish = append(rec.publish, published...)
		rec.visible = append(rec.visible, visible)
		rec.ops += edits
	})
	return nil
}

func (b *steppedBacklogInst) check(ctx context.Context) error {
	n := len(b.peers)
	views := make(map[string]*core.View)
	for _, i := range []int{0, n / 3, 2 * n / 3, n - 1} {
		views[b.peers[i]] = b.views[i]
	}
	return oracleCompare(ctx, b.in.spec, b.bus, b.acked, views)
}

func (b *steppedBacklogInst) close() error { return nil }

// ---- serve-mixed ----

type steppedServeInst struct {
	stepper
	serve  *serveTraffic
	bus    *core.MemoryBus
	view   *core.View
	cursor core.Cursor
}

func steppedServe(ctx context.Context, sz sizes, seed int64, dir string, tr *tracer) (instance, error) {
	in, err := serveInputs(sz, seed)
	if err != nil {
		return nil, err
	}
	s := &steppedServeInst{stepper: newStepper(in, tr), serve: newServeTraffic(sz, in, seed), bus: core.NewMemoryBus()}
	s.probe = s.serve.probe
	for _, sp := range in.seedPubs {
		if err := s.append(ctx, s.bus, sp); err != nil {
			return nil, err
		}
	}
	if s.view, s.cursor, err = s.seedView(ctx, s.bus, ""); err != nil {
		return nil, err
	}
	return s, warmUp(ctx, s, sz.warm)
}

func (s *steppedServeInst) cycle(ctx context.Context, rec *recorder) error {
	g := s.serve
	if !g.isWrite() {
		q, want := g.nextRead()
		root, op := s.root("read")
		start := time.Now()
		err := s.query(ctx, s.view, q, want, root, op)
		s.finish(rec, root, err, func() {
			rec.query = append(rec.query, time.Since(start))
			rec.ops++
		})
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	pub, q, want := g.nextWrite()
	root, op := s.root("write")
	start := time.Now()
	var published time.Duration
	err := func() error {
		if err := s.tr.call("core.PublishTo", "core", root, op, func(int) error {
			return s.append(ctx, s.bus, pub)
		}); err != nil {
			return err
		}
		published = time.Since(start)
		if err := s.apply("core.ExchangeCoalesced", root, op, func() (core.ApplyStats, error) {
			next, stats, err := core.ExchangeCoalesced(ctx, s.bus, s.view, s.cursor, core.DeleteProvenance)
			if err == nil {
				s.cursor = next
			}
			return stats, err
		}); err != nil {
			return err
		}
		return s.query(ctx, s.view, q, want, root, op)
	}()
	s.finish(rec, root, err, func() {
		rec.publish = append(rec.publish, published)
		rec.visible = append(rec.visible, time.Since(start))
	})
	return nil
}

func (s *steppedServeInst) check(ctx context.Context) error {
	return oracleCompare(ctx, s.in.spec, s.bus, s.acked, map[string]*core.View{"": s.view})
}

func (s *steppedServeInst) close() error { return nil }

// ---- restart-cycle ----

type steppedRestartInst struct {
	stepper
	sz      sizes
	dir     string
	peers   []string
	n       int
	pending []entry
}

func steppedRestart(ctx context.Context, sz sizes, seed int64, dir string, tr *tracer) (instance, error) {
	in, err := restartInputs(sz, seed)
	if err != nil {
		return nil, err
	}
	r := &steppedRestartInst{stepper: newStepper(in, tr), sz: sz, dir: dir, peers: peerNames(in.spec), n: sz.history}
	bus, err := logstore.OpenShardedBus(filepath.Join(dir, "bus.shards"), "")
	if err != nil {
		return nil, err
	}
	defer bus.Close()
	for _, p := range append(append([]core.Publication(nil), in.seedPubs...), in.history...) {
		if err := r.append(ctx, bus, p); err != nil {
			return nil, err
		}
	}
	view, cursor, err := r.seedView(ctx, bus, "")
	if err != nil {
		return nil, err
	}
	state, err := statestore.Open(dir)
	if err != nil {
		return nil, err
	}
	defer state.Close()
	if err := state.SaveView("", cursor.Total(), cursor.String(), in.spec.Fingerprint(), view.WriteSnapshot); err != nil {
		return nil, err
	}
	// Set-up's spans are dropped before the measurement starts.
	root, op := r.root("set-up")
	if _, err := r.publishPending(ctx, bus, root, op); err != nil {
		return nil, err
	}
	if err := bus.Close(); err != nil {
		return nil, err
	}
	if err := state.Close(); err != nil {
		return nil, err
	}
	return r, warmUp(ctx, r, sz.warm)
}

// publishPending appends the cycle's publications to the sharded bus,
// one logstore span each, and returns how long each took.
func (r *steppedRestartInst) publishPending(ctx context.Context, bus *logstore.ShardedBus, parent, op int) (took []time.Duration, err error) {
	r.pending = nil
	for i := 0; i < r.sz.pubs; i++ {
		pub, ins, del := restartPublication(r.in, r.peers, r.n)
		r.n++
		if pub.Peer == r.peers[0] {
			r.pending = append(append(r.pending, del...), ins...)
		}
		start := time.Now()
		if err := r.tr.call("logstore.ShardedBus.Append", "logstore", parent, op, func(int) error {
			return r.append(ctx, bus, pub)
		}); err != nil {
			return took, err
		}
		took = append(took, time.Since(start))
	}
	return took, nil
}

func (r *steppedRestartInst) cycle(ctx context.Context, rec *recorder) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	newest := pointProbe(r.probe, r.pending[len(r.pending)-1].key)
	root, op := r.root("restart cycle")
	start := time.Now()
	var (
		visible   time.Duration
		published []time.Duration
	)
	err := func() error {
		state, bus, view, cursor, err := r.open(ctx, root, op)
		// Closing twice is harmless, so the deferred calls only matter
		// on the error paths that skip the timed ones below.
		if state != nil {
			defer state.Close()
		}
		if bus != nil {
			defer bus.Close()
		}
		if err != nil {
			return err
		}
		if err := r.apply("core.ExchangeCoalesced", root, op, func() (core.ApplyStats, error) {
			next, stats, err := core.ExchangeCoalesced(ctx, bus, view, cursor, core.DeleteProvenance)
			if err == nil {
				cursor = next
			}
			return stats, err
		}); err != nil {
			return err
		}
		if err := r.checkpoint(state, view, cursor, root, op); err != nil {
			return err
		}
		if err := r.query(ctx, view, newest, 1, root, op); err != nil {
			return err
		}
		visible = time.Since(start)
		if published, err = r.publishPending(ctx, bus, root, op); err != nil {
			return err
		}
		if err := r.tr.call("logstore.ShardedBus.Close", "logstore", root, op, func(int) error { return bus.Close() }); err != nil {
			return err
		}
		return r.tr.call("statestore.Store.Close", "statestore", root, op, func(int) error { return state.Close() })
	}()
	r.finish(rec, root, err, func() {
		rec.visible = append(rec.visible, visible)
		rec.publish = append(rec.publish, published...)
		rec.ops++
	})
	return err
}

// open is what orchestra.New does over an existing state directory:
// open the manifest, open and replay the bus, load and decode the
// checkpoint.
func (r *steppedRestartInst) open(ctx context.Context, root, op int) (state *statestore.Store, bus *logstore.ShardedBus, view *core.View, cursor core.Cursor, err error) {
	if err = r.tr.call("statestore.Open", "statestore", root, op, func(int) (err error) {
		state, err = statestore.Open(r.dir)
		return err
	}); err != nil {
		return
	}
	if err = r.tr.call("logstore.OpenShardedBus", "logstore", root, op, func(int) (err error) {
		bus, err = logstore.OpenShardedBus(filepath.Join(r.dir, "bus.shards"), "")
		return err
	}); err != nil {
		return
	}
	var (
		vs   statestore.ViewState
		snap io.Reader
	)
	if err = r.tr.call("statestore.Store.LoadView", "statestore", root, op, func(int) (err error) {
		vs, snap, err = state.LoadView("")
		return err
	}); err != nil {
		return
	}
	// RestoreView compiles the view, decodes the null interner and hands
	// the rest to storage.ReadSnapshot; from outside the three cannot be
	// told apart, so the whole call is core's. The probes time
	// ReadSnapshot alone (storage.snapshot_read_ms).
	if err = r.tr.call("core.RestoreView", "core", root, op, func(int) (err error) {
		if view, err = core.RestoreView(r.in.spec, "", core.Options{}, snap); err != nil {
			return err
		}
		for _, d := range r.in.indexes {
			if err = view.DeclareSecondaryIndex(d.rel, d.col); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return
	}
	cursor, err = core.ParseCursor(vs.Position)
	return
}

func (r *steppedRestartInst) check(ctx context.Context) error {
	root, op := r.root("oracle reopen")
	state, bus, view, cursor, err := r.open(ctx, root, op)
	if state != nil {
		defer state.Close()
	}
	if bus != nil {
		defer bus.Close()
	}
	if err != nil {
		return err
	}
	if _, _, err := core.ExchangeCoalesced(ctx, bus, view, cursor, core.DeleteProvenance); err != nil {
		return err
	}
	return oracleCompare(ctx, r.in.spec, bus, r.acked, map[string]*core.View{"": view})
}

func (r *steppedRestartInst) close() error { return nil }
