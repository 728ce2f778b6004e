package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/engine"
	"orchestra/internal/exchange"
	"orchestra/internal/logstore"
	"orchestra/internal/provenance"
	"orchestra/internal/share"
	"orchestra/internal/statestore"
	"orchestra/internal/storage"
	"orchestra/internal/value"
)

// The layer probes time each package's public functions on the traced
// workload's own generated inputs — its confederation, its seed state,
// its publications pass by pass, its queries — one layer at a time and
// nothing else running. Every workload reports every per-layer metric;
// what differs between workloads is the data the layer was handed. The
// counts come from the ApplyStats, engine.Stats and QueryCacheStats
// values the public calls return.

// perLayer names the per-layer metrics with the end-to-end metric each
// should move and where; BENCHMARK.json repeats the list.
var perLayer = []struct {
	name, unit string
	higher     bool
	moves      string
}{
	{"value.encode_ns_per_tuple", "ns", false, "ops_per_s on exchange-backlog"},
	{"value.decode_ns_per_tuple", "ns", false, "ops_per_s on exchange-backlog"},
	{"storage.insert_ns_per_row", "ns", false, "ops_per_s on exchange-backlog"},
	{"storage.snapshot_write_ms", "ms", false, "visible_p50_ms on propagate-wire"},
	{"storage.snapshot_read_ms", "ms", false, "visible_p50_ms on restart-cycle"},
	{"storage.snapshot_bytes", "bytes", false, "visible_p50_ms on propagate-wire and restart-cycle"},
	{"engine.eval_ms", "ms", false, "visible_p50_ms and ops_per_s on exchange-backlog"},
	{"engine.iterations", "count", false, "ops_per_s on exchange-backlog"},
	{"engine.rule_fires", "count", false, "ops_per_s on exchange-backlog"},
	{"engine.probes_per_derived", "ratio", false, "ops_per_s on exchange-backlog"},
	{"engine.query_eval_us", "us", false, "ops_per_s on serve-mixed"},
	{"provenance.checked", "count", false, "ops_per_s on exchange-backlog"},
	{"provenance.rederived", "count", false, "ops_per_s on exchange-backlog"},
	{"provenance.rederived_ratio", "ratio", false, "ops_per_s on exchange-backlog"},
	{"provenance.rows_deleted", "count", false, "ops_per_s on exchange-backlog"},
	{"provenance.derivations_us", "us", false, "none gated: the provenance read path no workload times end to end"},
	{"core.apply_ms", "ms", false, "visible_p50_ms on exchange-backlog; a small share of it on propagate-wire"},
	{"core.neteffect_ms", "ms", false, "visible_p50_ms on exchange-backlog"},
	{"core.delete_ms", "ms", false, "visible_p50_ms on exchange-backlog"},
	{"core.insert_ms", "ms", false, "visible_p50_ms on exchange-backlog"},
	{"core.cancellation_ratio", "ratio", true, "visible_p50_ms on exchange-backlog"},
	{"core.query_hit_us", "us", false, "query_p50_us on serve-mixed"},
	{"core.query_miss_us", "us", false, "ops_per_s on serve-mixed; query_p50_us on the other three"},
	{"core.cache_hit_ratio", "ratio", true, "query_p50_us and ops_per_s on serve-mixed"},
	{"core.cache_evictions", "count", false, "ops_per_s on serve-mixed"},
	{"exchange.wall_ms", "ms", false, "visible_p50_ms on exchange-backlog"},
	{"exchange.busy_ms", "ms", false, "visible_p50_ms on exchange-backlog"},
	{"exchange.parallel_efficiency", "ratio", true, "visible_p50_ms on exchange-backlog"},
	{"logstore.append_ms", "ms", false, "publish_p50_ms on propagate-wire and restart-cycle"},
	{"logstore.bytes_per_user_byte", "ratio", false, "publish_p50_ms on propagate-wire and restart-cycle"},
	{"logstore.open_ms", "ms", false, "visible_p50_ms on restart-cycle"},
	{"logstore.fetch_ms", "ms", false, "visible_p50_ms on restart-cycle"},
	{"statestore.save_ms", "ms", false, "visible_p50_ms on propagate-wire and restart-cycle"},
	{"statestore.save_bytes", "bytes", false, "visible_p50_ms on propagate-wire and restart-cycle"},
	{"statestore.bytes_per_edit", "bytes", false, "visible_p50_ms on propagate-wire"},
	{"statestore.load_ms", "ms", false, "visible_p50_ms on restart-cycle"},
	{"share.append_ms", "ms", false, "publish_p50_ms and visible_p50_ms on propagate-wire"},
	{"share.watch_delivery_ms", "ms", false, "visible_p50_ms on propagate-wire"},
	{"share.fetch_ms", "ms", false, "none gated: the pull path, which propagate-wire uses only to catch up"},
	{"orchestra.publish_ms", "ms", false, "publish_p50_ms on restart-cycle"},
	{"orchestra.exchange_ms", "ms", false, "visible_p50_ms on restart-cycle"},
	{"orchestra.checkpoint_ms", "ms", false, "visible_p50_ms on propagate-wire and restart-cycle"},
	{"orchestra.query_us", "us", false, "query_p50_us on every workload"},
	{"orchestra.new_ms", "ms", false, "visible_p50_ms on restart-cycle"},
	{"orchestra.self_ms", "ms", false, "whichever end-to-end metric the facade call is part of"},
}

// prober runs the probes of one traced workload.
type prober struct {
	ctx context.Context
	in  *inputs
	dir string
	// budget is the time one probe may keep repeating itself; every
	// probe still takes minReps samples however slow it is.
	budget time.Duration
	out    map[string]metric
	// passes caches the generated maintenance passes so every probe
	// replays the same publications onto its own copy of the seed state.
	passes [][]core.Publication
	// editsPerPass is the mean size of a pass, in edit-log entries.
	editsPerPass float64
}

const (
	minReps = 5
	// maxPasses caps how many maintenance passes any probe replays.
	maxPasses = 64
)

// repeat calls fn until the budget is spent (at least minReps times, at
// most limit) and returns each call's duration.
func (p *prober) repeat(limit int, fn func(i int) error) ([]time.Duration, error) {
	var took []time.Duration
	start := time.Now()
	for i := 0; i < limit && (i < minReps || time.Since(start) < p.budget); i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			return took, err
		}
		took = append(took, time.Since(t))
	}
	return took, nil
}

func (p *prober) pass(i int) []core.Publication {
	for len(p.passes) <= i {
		p.passes = append(p.passes, p.in.pass())
	}
	return p.passes[i]
}

func (p *prober) count(name string, v float64, unit string) {
	p.out[name] = metric{Value: v, Unit: unit}
}

// seeded returns a memory bus holding the seed publications and history.
func (p *prober) seeded() (*core.MemoryBus, error) {
	bus := core.NewMemoryBus()
	for _, pub := range p.preload() {
		if err := bus.Append(p.ctx, pub.Peer, pub.Log); err != nil {
			return nil, err
		}
	}
	return bus, nil
}

func (p *prober) preload() []core.Publication {
	return append(append([]core.Publication(nil), p.in.seedPubs...), p.in.history...)
}

func appendAll(ctx context.Context, bus core.BusAppender, pubs []core.Publication) error {
	for _, pub := range pubs {
		if err := bus.Append(ctx, pub.Peer, pub.Log); err != nil {
			return err
		}
	}
	return nil
}

// probeLayers measures every per-layer metric on the inputs.
func probeLayers(ctx context.Context, in *inputs, dir string, seconds float64) (map[string]metric, error) {
	p := &prober{ctx: ctx, in: in, dir: dir, out: make(map[string]metric),
		budget: time.Duration(seconds / 12 * float64(time.Second))}
	bus, err := p.seeded()
	if err != nil {
		return nil, err
	}
	view, err := in.newView(in.owner)
	if err != nil {
		return nil, err
	}
	cursor, _, err := core.ExchangeCoalesced(ctx, bus, view, core.Cursor{}, core.DeleteProvenance)
	if err != nil {
		return nil, err
	}
	for _, probe := range []func() error{
		func() error { return p.maintenance(bus, view, &cursor) },
		p.valueAndStorage,
		func() error { return p.snapshots(view) },
		func() error { return p.queryEval(view) },
		func() error { return p.derivations(view) },
		func() error { return p.readPath(bus, view, &cursor) },
		p.scheduler,
		p.logstore,
		func() error { return p.statestore(view) },
		p.share,
		p.facade,
	} {
		if err := probe(); err != nil {
			return p.out, err
		}
	}
	return p.out, nil
}

// maintenance replays passes through core.ExchangeCoalesced on the one
// view and reads the layers below out of the ApplyStats.
func (p *prober) maintenance(bus *core.MemoryBus, view *core.View, cursor *core.Cursor) error {
	var total core.ApplyStats
	var neteffect, del, ins, eval []time.Duration
	apply, err := p.repeat(maxPasses, func(i int) error {
		if err := appendAll(p.ctx, bus, p.pass(i)); err != nil {
			return err
		}
		next, stats, err := core.ExchangeCoalesced(p.ctx, bus, view, *cursor, core.DeleteProvenance)
		if err != nil {
			return err
		}
		*cursor = next
		total.Add(stats)
		neteffect = append(neteffect, time.Duration(stats.NetEffectNS))
		del = append(del, time.Duration(stats.DeleteNS))
		ins = append(ins, time.Duration(stats.InsertNS))
		eval = append(eval, time.Duration(stats.Engine.EvalNS))
		return nil
	})
	if err != nil {
		return err
	}
	// apply includes putting the pass on the memory bus, which costs
	// microseconds against a pass's milliseconds.
	n := float64(len(apply))
	p.out["core.apply_ms"] = ms(apply)
	p.out["core.neteffect_ms"] = ms(neteffect)
	p.out["core.delete_ms"] = ms(del)
	p.out["core.insert_ms"] = ms(ins)
	p.count("core.cancellation_ratio", total.CancellationRatio(), "ratio")
	p.out["engine.eval_ms"] = ms(eval)
	p.count("engine.iterations", float64(total.Engine.Iterations)/n, "count")
	p.count("engine.rule_fires", float64(total.Engine.RuleFires)/n, "count")
	p.count("engine.probes_per_derived", ratio(float64(total.Engine.Probes), float64(total.Engine.Derived)), "ratio")
	p.count("provenance.checked", float64(total.Checked)/n, "count")
	p.count("provenance.rederived", float64(total.Rederived)/n, "count")
	p.count("provenance.rederived_ratio", ratio(float64(total.Rederived), float64(total.Checked)), "ratio")
	p.count("provenance.rows_deleted", float64(total.ProvRowsDeleted)/n, "count")
	p.editsPerPass = float64(total.EditsIn) / n
	return nil
}

// tuples are the workload's published tuples, capped.
func (p *prober) tuples() []value.Tuple {
	const limit = 50000
	var out []value.Tuple
	for _, pubs := range append([][]core.Publication{p.preload()}, p.passes...) {
		for _, pub := range pubs {
			for _, e := range pub.Log {
				if len(out) == limit {
					return out
				}
				out = append(out, e.Tuple)
			}
		}
	}
	return out
}

// perItem turns whole-batch timings into a median cost per item.
func perItem(batches []time.Duration, items int, unit string) metric {
	xs := make([]float64, len(batches))
	for i, d := range batches {
		xs[i] = float64(d) / float64(items)
	}
	return metric{Value: median(xs), Unit: unit, Samples: len(xs) * items}
}

func (p *prober) valueAndStorage() error {
	tuples := p.tuples()
	keys := make([]string, len(tuples))
	var buf []byte
	encode, _ := p.repeat(1000, func(int) error {
		for i, t := range tuples {
			buf = t.EncodeKey(buf[:0])
			keys[i] = string(buf)
		}
		return nil
	})
	decode, err := p.repeat(1000, func(int) error {
		for _, k := range keys {
			if _, err := value.DecodeTuple(k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	insert, _ := p.repeat(1000, func(int) error {
		tables := make(map[int]*storage.Table)
		for _, t := range tuples {
			tbl := tables[len(t)]
			if tbl == nil {
				tbl = storage.NewTable(fmt.Sprintf("arity%d", len(t)), len(t))
				tables[len(t)] = tbl
			}
			tbl.Insert(t)
		}
		return nil
	})
	p.out["value.encode_ns_per_tuple"] = perItem(encode, len(tuples), "ns")
	p.out["value.decode_ns_per_tuple"] = perItem(decode, len(tuples), "ns")
	p.out["storage.insert_ns_per_row"] = perItem(insert, len(tuples), "ns")
	return nil
}

func (p *prober) snapshots(view *core.View) error {
	var snap bytes.Buffer
	write, err := p.repeat(100, func(int) error {
		snap.Reset()
		return view.DB().WriteSnapshot(&snap)
	})
	if err != nil {
		return err
	}
	read, err := p.repeat(100, func(int) error {
		_, err := storage.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	p.out["storage.snapshot_write_ms"] = ms(write)
	p.out["storage.snapshot_read_ms"] = ms(read)
	p.count("storage.snapshot_bytes", float64(snap.Len()), "bytes")
	return nil
}

// queries interleaves the hot and cold sets.
func (p *prober) queries() []query {
	qs := append(append([]query(nil), p.in.hot...), p.in.cold...)
	rand.New(rand.NewSource(1)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// queryEval times engine.NewQuery(...).Run alone: the evaluator is
// compiled over a workspace table the way core compiles a read-path
// query, and only Run is inside the clock.
func (p *prober) queryEval(view *core.View) error {
	qs := p.queries()
	var runs []time.Duration
	_, err := p.repeat(len(qs), func(i int) error {
		rule := qs[i].rule
		const tmp = "q$bench"
		if _, err := view.DB().Create(tmp, len(rule.Head.Args)); err != nil {
			return err
		}
		defer view.DB().Drop(tmp)
		prog := datalog.NewProgram(datalog.NewRule(rule.ID, datalog.NewAtom(tmp, rule.Head.Args...), rule.Body...))
		ev, err := engine.NewQuery(prog, view.DB(), view.Skolems(), engine.Options{CostBased: true})
		if err != nil {
			return err
		}
		start := time.Now()
		_, err = ev.Run(p.ctx)
		runs = append(runs, time.Since(start))
		return err
	})
	p.out["engine.query_eval_us"] = us(runs)
	return err
}

// derivations asks the provenance graph for the derivations of sampled
// imported tuples: one scan of the candidate provenance tables each.
func (p *prober) derivations(view *core.View) error {
	var refs []provenance.Ref
	for _, rel := range p.in.spec.Universe.Relations() {
		rows := view.InputTable(rel.Name).AllRows()
		for i := 0; i < len(rows) && i < 4; i++ {
			refs = append(refs, provenance.RowRef(core.InputRel(rel.Name), rows[i*len(rows)/4]))
		}
	}
	if len(refs) == 0 {
		return fmt.Errorf("provenance probe: the view imported nothing")
	}
	found := 0
	took, _ := p.repeat(len(refs), func(i int) error {
		found += len(view.Graph().DerivationsOf(refs[i]))
		return nil
	})
	if found == 0 {
		return fmt.Errorf("provenance probe: %d imported tuples have no derivation", len(took))
	}
	p.out["provenance.derivations_us"] = us(took)
	return nil
}

// readPath replays a query mix through View.Query — four hot in five,
// a maintenance pass every 128 queries — and classifies each query by
// the QueryCacheStats delta across the call.
func (p *prober) readPath(bus *core.MemoryBus, view *core.View, cursor *core.Cursor) error {
	rng := rand.New(rand.NewSource(1))
	var hits, misses []time.Duration
	_, _, evicted0 := view.QueryCacheStats()
	nextPass := len(p.passes)
	_, err := p.repeat(1<<20, func(i int) error {
		if i%128 == 127 {
			if err := appendAll(p.ctx, bus, p.pass(nextPass)); err != nil {
				return err
			}
			nextPass++
			next, _, err := core.ExchangeCoalesced(p.ctx, bus, view, *cursor, core.DeleteProvenance)
			if err != nil {
				return err
			}
			*cursor = next
		}
		q := p.in.hot[rng.Intn(len(p.in.hot))]
		if rng.Intn(5) == 0 {
			q = p.in.cold[rng.Intn(len(p.in.cold))]
		}
		h0, _, _ := view.QueryCacheStats()
		start := time.Now()
		_, err := view.Query(p.ctx, q.text, true)
		d := time.Since(start)
		if h1, _, _ := view.QueryCacheStats(); h1 > h0 {
			hits = append(hits, d)
		} else {
			misses = append(misses, d)
		}
		return err
	})
	if err != nil {
		return err
	}
	_, _, evicted := view.QueryCacheStats()
	p.out["core.query_hit_us"] = us(hits)
	p.out["core.query_miss_us"] = us(misses)
	p.count("core.cache_hit_ratio", ratio(float64(len(hits)), float64(len(hits)+len(misses))), "ratio")
	p.count("core.cache_evictions", float64(evicted-evicted0), "count")
	return nil
}

// scheduler runs one coalesced pass per peer view through
// exchange.Scheduler.Run, timing each task from inside its Run.
func (p *prober) scheduler() error {
	bus, err := p.seeded()
	if err != nil {
		return err
	}
	peers := peerNames(p.in.spec)
	views, cursors := make([]*core.View, len(peers)), make([]core.Cursor, len(peers))
	for i, peer := range peers {
		if views[i], err = p.in.newView(peer); err != nil {
			return err
		}
		if cursors[i], _, err = core.ExchangeCoalesced(p.ctx, bus, views[i], core.Cursor{}, core.DeleteProvenance); err != nil {
			return err
		}
	}
	sched := exchange.NewScheduler[core.ApplyStats](0)
	var busy []time.Duration
	var wall []time.Duration
	_, err = p.repeat(maxPasses, func(i int) error {
		if err := appendAll(p.ctx, bus, p.pass(i)); err != nil {
			return err
		}
		var taskNS atomic.Int64
		tasks := make([]exchange.Task[core.ApplyStats], len(views))
		for i, v := range views {
			tasks[i] = exchange.Task[core.ApplyStats]{Owner: peers[i], Run: func(ctx context.Context) (core.ApplyStats, error) {
				start := time.Now()
				next, stats, err := core.ExchangeCoalesced(ctx, bus, v, cursors[i], core.DeleteProvenance)
				if err == nil {
					cursors[i] = next
				}
				taskNS.Add(int64(time.Since(start)))
				return stats, err
			}}
		}
		start := time.Now()
		_, err := sched.Run(p.ctx, tasks)
		wall = append(wall, time.Since(start))
		busy = append(busy, time.Duration(taskNS.Load()))
		return err
	})
	if err != nil {
		return err
	}
	var busySum, wallSum time.Duration
	for i := range wall {
		busySum += busy[i]
		wallSum += wall[i]
	}
	p.out["exchange.wall_ms"] = ms(wall)
	p.out["exchange.busy_ms"] = ms(busy)
	p.count("exchange.parallel_efficiency", ratio(float64(busySum), float64(sched.Workers())*float64(wallSum)), "ratio")
	return nil
}

// userBytes is the payload of a publication: relation names and encoded
// tuples, one marker byte per edit.
func userBytes(pub core.Publication) int {
	n := 0
	for _, e := range pub.Log {
		n += 1 + len(e.Rel) + e.Tuple.EncodedLen()
	}
	return n
}

func (p *prober) logstore() error {
	// Appends: the flat store a BusServer persists to.
	path := filepath.Join(p.dir, "probe-flat.olg")
	flat, err := logstore.Open(path)
	if err != nil {
		return err
	}
	defer flat.Close()
	var pubs []core.Publication
	for _, pass := range p.passes {
		pubs = append(pubs, pass...)
	}
	payload := 0
	appends, err := p.repeat(len(pubs), func(i int) error {
		payload += userBytes(pubs[i])
		return flat.AppendTraced(pubs[i].Peer, pubs[i].Log, "")
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.out["logstore.append_ms"] = ms(appends)
	p.count("logstore.bytes_per_user_byte", ratio(float64(fi.Size()), float64(payload)), "ratio")

	// Open and fetch: the sharded bus over the workload's whole log.
	shards := filepath.Join(p.dir, "probe-shards")
	sb, err := logstore.OpenShardedBus(shards, "")
	if err != nil {
		return err
	}
	err = appendAll(p.ctx, sb, append(p.preload(), pubs...))
	if cerr := sb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var opens, fetches []time.Duration
	_, err = p.repeat(100, func(int) error {
		start := time.Now()
		sb, err := logstore.OpenShardedBus(shards, "")
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(start))
		defer sb.Close()
		start = time.Now()
		_, _, err = sb.Fetch(p.ctx, core.Cursor{})
		fetches = append(fetches, time.Since(start))
		return err
	})
	p.out["logstore.open_ms"] = ms(opens)
	p.out["logstore.fetch_ms"] = ms(fetches)
	return err
}

// countingWriter measures a snapshot's size on its way to the store.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += len(b)
	return c.w.Write(b)
}

func (p *prober) statestore(view *core.View) error {
	st, err := statestore.Open(filepath.Join(p.dir, "probe-state"))
	if err != nil {
		return err
	}
	defer st.Close()
	size := 0
	saves, err := p.repeat(100, func(i int) error {
		return st.SaveView(view.Owner(), i, "", p.in.spec.Fingerprint(), func(w io.Writer) error {
			cw := &countingWriter{w: w}
			defer func() { size = cw.n }()
			return view.WriteSnapshot(cw)
		})
	})
	if err != nil {
		return err
	}
	loads, err := p.repeat(100, func(int) error {
		_, r, err := st.LoadView(view.Owner())
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, r)
		return err
	})
	if err != nil {
		return err
	}
	p.out["statestore.save_ms"] = ms(saves)
	p.out["statestore.load_ms"] = ms(loads)
	p.count("statestore.save_bytes", float64(size), "bytes")
	p.count("statestore.bytes_per_edit", ratio(float64(size), p.editsPerPass), "bytes")
	return nil
}

// share measures the wire alone: an HTTP bus against a server on
// loopback that does not persist.
func (p *prober) share() error {
	srv := share.NewServer()
	srv.SetValidate(share.SpecValidator(p.in.spec))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	bus := share.NewBus(ts.URL)
	deltas, cancel, err := bus.Subscribe(p.ctx, core.Cursor{})
	if err != nil {
		return err
	}
	defer cancel()
	var pubs []core.Publication
	for _, pass := range p.passes {
		pubs = append(pubs, pass...)
	}
	var appends, deliveries []time.Duration
	_, err = p.repeat(len(pubs), func(i int) error {
		start := time.Now()
		if err := bus.Append(p.ctx, pubs[i].Peer, pubs[i].Log); err != nil {
			return err
		}
		acked := time.Now()
		select {
		case <-deltas:
		case <-time.After(opTimeout):
			return fmt.Errorf("share probe: no delta on the subscription %v after its append returned", opTimeout)
		}
		appends = append(appends, acked.Sub(start))
		deliveries = append(deliveries, time.Since(acked))
		return nil
	})
	if err != nil {
		return err
	}
	fetches, err := p.repeat(100, func(int) error {
		_, _, err := bus.Fetch(p.ctx, core.Cursor{})
		return err
	})
	p.out["share.append_ms"] = ms(appends)
	p.out["share.watch_delivery_ms"] = ms(deliveries)
	p.out["share.fetch_ms"] = ms(fetches)
	return err
}

// facade times the orchestra calls themselves on a durable embedded
// System, and subtracts the layer calls underneath them — as the other
// probes measured those — to get the facade's own share.
func (p *prober) facade() error {
	opts := append(p.in.indexOptions(), orchestra.WithPersistence(filepath.Join(p.dir, "probe-system")))
	sys, err := orchestra.New(p.in.spec, opts...)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			sys.Close()
		}
	}()
	for _, pub := range p.preload() {
		if err := sys.Publish(p.ctx, pub.Peer, pub.Log); err != nil {
			return err
		}
	}
	if _, err := sys.Exchange(p.ctx, p.in.owner); err != nil {
		return err
	}
	qs := p.queries()
	var publishes, exchanges, checkpoints, queries []time.Duration
	clock := func(dst *[]time.Duration, fn func() error) error {
		start := time.Now()
		err := fn()
		*dst = append(*dst, time.Since(start))
		return err
	}
	_, err = p.repeat(len(p.passes), func(i int) error {
		for _, pub := range p.passes[i] {
			if err := clock(&publishes, func() error { return sys.Publish(p.ctx, pub.Peer, pub.Log) }); err != nil {
				return err
			}
		}
		if err := clock(&exchanges, func() error { _, err := sys.Exchange(p.ctx, p.in.owner); return err }); err != nil {
			return err
		}
		if err := clock(&checkpoints, func() error { return sys.Checkpoint(p.ctx) }); err != nil {
			return err
		}
		// Several queries per pass: the first one after a checkpoint runs
		// on cold processor caches.
		for k := 0; k < 8; k++ {
			if err := clock(&queries, func() error {
				_, err := sys.Query(p.ctx, p.in.owner, qs[(8*i+k)%len(qs)].text, true)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	closed = true
	if err := sys.Close(); err != nil {
		return err
	}
	var opens []time.Duration
	if _, err := p.repeat(100, func(int) error {
		var sys *orchestra.System
		if err := clock(&opens, func() (err error) {
			sys, err = orchestra.New(p.in.spec, opts...)
			return err
		}); err != nil {
			return err
		}
		return sys.Close()
	}); err != nil {
		return err
	}
	p.out["orchestra.publish_ms"] = ms(publishes)
	p.out["orchestra.exchange_ms"] = ms(exchanges)
	p.out["orchestra.checkpoint_ms"] = ms(checkpoints)
	p.out["orchestra.query_us"] = us(queries)
	p.out["orchestra.new_ms"] = ms(opens)
	// One pass through the facade is its publishes, the exchange (which
	// checkpoints) and a query; underneath are as many log appends, one
	// maintenance pass, one checkpoint save and one uncached query.
	perPass := float64(len(publishes)) / float64(len(exchanges))
	above := perPass*p.out["orchestra.publish_ms"].Value + p.out["orchestra.exchange_ms"].Value + p.out["orchestra.query_us"].Value/1000
	below := perPass*p.out["logstore.append_ms"].Value + p.out["core.apply_ms"].Value + p.out["statestore.save_ms"].Value + p.out["core.query_miss_us"].Value/1000
	p.count("orchestra.self_ms", above-below, "ms")
	return nil
}
