// Command orchestrad runs the CDSS publication service — the central
// storage through which peers share their edit logs (paper §2: update
// exchange "publishes P's local edit log — making it globally available
// via central or distributed storage"). Clients connect with
// orchestra.NewHTTPBus.
//
// Usage:
//
//	orchestrad -addr :8344 -store publications.log [-spec confed.cdss]
//	           [-state dir] [-view owner] [-refresh 2s] [-admin-token T]
//	           [-trace-buffer 64] [-bus URL] [-profile-threshold D]
//
// With -spec, incoming publications are validated against the CDSS
// description (peers may only edit their own relations). With -store,
// accepted publications are durably appended and reloaded on restart.
// With -bus, the maintained views exchange against ANOTHER node's
// publication service instead of this daemon's own bus — the follower
// topology: node A runs -store and owns the durable publication
// sequence, node B runs -bus http://A -state and maintains its views
// over A's bus. The follower subscribes to A's delta stream
// (GET /watch) and imports each publication as it is pushed, so it
// converges with sub-second latency; the -refresh ticker remains as a
// safety net across stream outages.
//
// With -admin-token (requires -spec), the daemon additionally serves
// authenticated spec-evolution endpoints, sharing one token gate with
// the -spec validation machinery they re-point:
//
//	POST   /spec/mapping      body: "m9: U(n,c) -> C(n,n)"   add a mapping
//	DELETE /spec/mapping?id=m9                                remove a mapping
//	GET    /spec                                              current spec
//
// Requests must carry "Authorization: Bearer <token>". An accepted
// change evolves the durable view's System in place (under -state) and
// swaps publication validation onto the evolved spec, so the next
// publish is judged under the confederation the admin just configured.
//
// With -state (requires -spec and -store), the daemon is durable
// end-to-end in one process: besides the durable publication log it
// maintains a materialized view of the confederation (the -view owner;
// default the global trust-all view, or "all" for every peer's view
// plus the global one), and serves the curated instances at
// GET /instance?rel=R[&owner=P]. Views exchange on publish — the views
// subscribe to the bus (GET /watch), and every streamed publication
// wakes one push pass that imports the pending run as one coalesced
// apply — with the -refresh ticker as a fallback; "-view all" runs the
// per-view passes concurrently through the exchange scheduler (bounded
// by -exchange-parallelism). Completed
// exchanges checkpoint into the state directory; on restart each view
// is recovered from its snapshot and fast-forwarded past its persisted
// cursor instead of re-exchanging from publication zero.
//
// Operations plane (always on; see DESIGN.md "Observability"):
//
//	GET /healthz            liveness: the process serves requests
//	GET /readyz             readiness: bus reachable, state dir open, views warm
//	GET /metrics            Prometheus text format (exchange pass timings,
//	                        per-view bus lag, query latency histograms,
//	                        checkpoint age, publish/append/HTTP telemetry,
//	                        build info and process uptime)
//	GET /debug/trace        last N exchange pass traces as JSON span trees
//	                        (?last=N), or one publication's end-to-end
//	                        lineage (?pub=<trace-id>); requires
//	                        -admin-token, Bearer auth
//	GET /debug/slowqueries  captured slow-query records (?last=N; gated
//	                        like /debug/trace)
//	GET /debug/pprof/...    net/http/pprof, absent without -admin-token
//	GET /query              conjunctive query over a maintained view
//	                        (?q=...&owner=P&nulls=1; requires -state)
//
// Logging is structured JSON on stderr (log/slog): one record per
// request carrying method, path, status, duration, peer, a per-request
// id, and — when the request carried a traceparent header — the
// publication trace id, so a publication can be followed from the
// access log into /debug/trace. With -profile-threshold, an exchange
// pass slower than the threshold arms a CPU profile of the next pass,
// saved under <statedir>/profiles (newest 8 kept).
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight requests
// drain, the view takes a final checkpoint, and the publication log
// closes on a frame boundary.
//
// Protocol: POST /publish, GET /fetch?cursor=C, GET /horizon,
// GET /watch?cursor=C (see internal/share).
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"orchestra"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	storePath := flag.String("store", "", "append-only publication log file (empty = in-memory only)")
	specPath := flag.String("spec", "", "CDSS spec file to validate publications against")
	statePath := flag.String("state", "", "state directory for a durable materialized view (requires -spec and a durable bus: -store or -bus)")
	viewOwner := flag.String("view", "", "owner of the maintained view; empty = global trust-all view, \"all\" = every peer view plus the global one")
	refresh := flag.Duration("refresh", 2*time.Second, "fallback interval between exchanges (publications also trigger one immediately)")
	exchPar := flag.Int("exchange-parallelism", 0, "bound on concurrent per-view exchange passes under -view all (0 = GOMAXPROCS)")
	adminToken := flag.String("admin-token", "", "bearer token for the spec-evolution admin endpoints and the /debug surface (requires -spec for the former)")
	traceBuf := flag.Int("trace-buffer", 64, "exchange pass traces retained for /debug/trace")
	busURL := flag.String("bus", "", "exchange the maintained views against another node's publication service at this URL instead of the local bus")
	profThresh := flag.Duration("profile-threshold", 0, "exchange pass duration that arms a CPU profile of the next pass (0 disables; requires -state)")
	slowQuery := flag.Duration("slow-query", 0, "query latency above which the query is captured into /debug/slowqueries (0 = 250ms default, negative disables)")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	die := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var parsed *orchestra.SpecFile
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			die("opening spec", "err", err)
		}
		var perr error
		parsed, perr = orchestra.ParseSpec(f)
		f.Close()
		if perr != nil {
			die("parsing spec", "err", perr)
		}
		logger.Info("validating publications", "spec", *specPath,
			"peers", len(parsed.Spec.Universe.Peers()), "mappings", len(parsed.Spec.Mappings))
	}
	if *statePath != "" {
		if parsed == nil || (*storePath == "" && *busURL == "") {
			die("-state requires -spec and a durable bus (-store, or -bus pointing at a durable node)")
		}
		if *refresh <= 0 {
			die("-refresh must be positive", "got", *refresh)
		}
	}

	d, err := newDaemon(daemonConfig{
		storePath:        *storePath,
		statePath:        *statePath,
		viewOwner:        *viewOwner,
		refresh:          *refresh,
		exchPar:          *exchPar,
		adminToken:       *adminToken,
		traceCap:         *traceBuf,
		busURL:           *busURL,
		profileThreshold: *profThresh,
		slowQuery:        *slowQuery,
		logger:           logger,
	}, parsed)
	if err != nil {
		die("starting daemon", "err", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		die("listening", "addr", *addr, "err", err)
	}

	if *statePath != "" {
		// Absent -bus, the view exchanges through the daemon's own HTTP
		// bus, so its persisted cursors refer to the same durable
		// publication sequence every other node sees.
		if err := d.enableViews("http://" + hostPort(ln.Addr())); err != nil {
			die("enabling views", "err", err)
		}
	}

	if *adminToken != "" {
		if parsed == nil {
			die("-admin-token requires -spec (evolution needs a confederation description)")
		}
		registerAdmin(d.mux, *adminToken, parsed.Spec, d.srv, d.sys)
		logger.Info("admin endpoints enabled",
			"endpoints", "/spec, /spec/mapping, /debug/trace, /debug/slowqueries, /debug/pprof")
	}

	httpSrv := &http.Server{Handler: d.handler}
	go func() {
		<-ctx.Done()
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
	}()

	var exchanges sync.WaitGroup
	if d.sys != nil {
		// This must run after httpSrv.Serve starts: the exchange goes
		// through the daemon's own HTTP bus, so running it on the main
		// goroutine would deadlock against the unserved listener.
		exchanges.Add(1)
		go func() {
			defer exchanges.Done()
			d.runExchangeLoop(ctx)
		}()
	}

	logger.Info("listening", "addr", ln.Addr().String())
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		die("serving", "err", err)
	}
	// Drain the exchange loop before the final checkpoint so the
	// snapshot observes a quiescent view.
	exchanges.Wait()
	if d.sys != nil {
		if err := d.sys.Checkpoint(context.Background()); err != nil {
			logger.Error("final checkpoint", "err", err)
		}
		if err := d.sys.Close(); err != nil {
			logger.Error("closing system", "err", err)
		}
	}
	// Closing the publication log last guarantees the durable sequence
	// ends on a frame boundary.
	if err := d.srv.Close(); err != nil {
		logger.Error("closing store", "err", err)
	}
	logger.Info("shut down cleanly")
}

// hostPort renders a listener address for client use, substituting
// loopback for the unspecified host (":8344" listens on all
// interfaces; the daemon's own view client dials loopback).
func hostPort(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return addr.String()
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}
