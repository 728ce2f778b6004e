package orchestra

import (
	"context"
	"fmt"

	"orchestra/internal/core"
	"orchestra/internal/exchange"
)

// StartPush switches the System from polling to push delivery: it
// subscribes to the bus (which must implement BusWatcher — the
// in-process MemoryBus, the durable sharded bus, and the HTTP bus all
// do) and, for every publication streamed in, buffers the delta on
// each materialized view and wakes an exchange loop that imports it
// immediately. The subscription is the one wake-up for every
// publication, including those the caller appended itself, and a
// pushed delta costs no bus fetch. Bursts coalesce: the loop runs one
// pass per burst, over the same scheduler and apply step ExchangeAll
// uses, so a view applies publications with sub-second latency without
// polling and without full-log replays (a view whose buffer gaps or
// overflows falls back to one ordinary pull fetch).
//
// Views materialized after StartPush still converge — every exchange
// pass covers all current views — but only publications streamed after
// they materialize are push-buffered for them; their first pass pulls.
//
// The returned stop function cancels the subscription and waits for
// the delivery loop to drain; cancelling ctx does the same. Calling
// StartPush on a bus without the BusWatcher capability returns an
// error, leaving the caller on its polling path.
func (s *System) StartPush(ctx context.Context) (stop func(), err error) {
	w, ok := s.bus.(core.BusWatcher)
	if !ok {
		return nil, fmt.Errorf("orchestra: bus %T has no subscription capability (core.BusWatcher); poll with ExchangeAll instead", s.bus)
	}
	// Subscribe from the laggiest view's cursor: deltas a fresher view
	// already applied are skipped as stale during its pass, and nothing
	// any view still needs is missed. With no views yet, subscribing
	// from the horizon avoids replaying history nobody buffered for.
	from, err := s.minCursor(ctx)
	if err != nil {
		return nil, err
	}
	ch, cancel, err := w.Subscribe(ctx, from)
	if err != nil {
		return nil, err
	}
	pctx, cancelLoop := context.WithCancel(ctx)
	waker := exchange.NewWaker()
	done := make(chan struct{})
	// Receiver: buffer each delta on every materialized view and wake
	// the exchange loop. Buffering never takes a view's lock, so a slow
	// exchange cannot stall delivery (the buffer bound caps memory).
	go func() {
		defer close(done)
		for {
			select {
			case d, ok := <-ch:
				if !ok {
					return
				}
				s.mu.RLock()
				for _, h := range s.views {
					h.bufferPush(d)
				}
				s.mu.RUnlock()
				waker.Wake()
			case <-pctx.Done():
				return
			}
		}
	}()
	// Exchange loop: one pass per burst.
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for {
			select {
			case <-waker.C():
				s.pushPass(pctx)
			case <-pctx.Done():
				return
			}
		}
	}()
	return func() {
		cancel()
		cancelLoop()
		<-done
		<-loopDone
	}, nil
}

// minCursor returns the smallest cursor over the materialized views,
// or the bus horizon when no view exists yet.
func (s *System) minCursor(ctx context.Context) (core.Cursor, error) {
	s.mu.RLock()
	handles := make([]*viewHandle, 0, len(s.views))
	for _, h := range s.views {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	if len(handles) == 0 {
		return s.bus.Horizon(ctx)
	}
	var minC core.Cursor
	for i, h := range handles {
		h.mu.Lock()
		c := h.cursor
		h.mu.Unlock()
		if i == 0 || c.Total() < minC.Total() {
			minC = c
		}
	}
	return minC, nil
}

// pushPass runs one push-triggered exchange pass over every
// materialized view, reusing the scheduler (and its parallelism bound)
// that ExchangeAll uses. Errors are reflected in the pass metrics and
// trace; the loop keeps running — the next burst (or any pull
// exchange) retries.
func (s *System) pushPass(ctx context.Context) {
	s.mu.RLock()
	owners := make([]string, 0, len(s.views))
	for owner := range s.views {
		owners = append(owners, owner)
	}
	s.mu.RUnlock()
	if len(owners) == 0 {
		return
	}
	pass := s.obsx.startPass(passKindExchangePush)
	tasks := make([]exchange.Task[ApplyStats], len(owners))
	for i, owner := range owners {
		tasks[i] = exchange.Task[ApplyStats]{Owner: owner, Run: func(ctx context.Context) (ApplyStats, error) {
			return s.exchangeView(ctx, owner, pass)
		}}
	}
	_, err := s.sched.Run(ctx, tasks)
	s.obsx.finishPass(pass, passKindExchangePush, err)
}
