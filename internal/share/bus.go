package share

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/obs"
)

// Bus is the HTTP client side of the publication service, shaped as the
// core bus interfaces (BusAppender, BusReader, BusWatcher), so the same
// application code runs embedded (core.MemoryBus) or federated against
// a remote publication service. Subscribe streams /watch with automatic
// reconnection.
type Bus struct {
	// BaseURL is the service's root, e.g. "http://localhost:8344".
	BaseURL string
	// HTTP is the client every request goes through (swap it to change
	// transports or timeouts).
	HTTP *http.Client
}

// NewBus returns a PublicationBus backed by the service at baseURL.
func NewBus(baseURL string) *Bus {
	return &Bus{BaseURL: baseURL, HTTP: http.DefaultClient}
}

// Append implements core.BusAppender by POSTing to /publish. The
// publication's lineage trace id travels as a traceparent header —
// taken from ctx when the caller already carries a span, minted here
// otherwise.
func (b *Bus) Append(ctx context.Context, peer string, log core.EditLog) error {
	payload, err := json.Marshal(toWire(peer, log))
	if err != nil {
		return err
	}
	ctx, sc := obs.EnsureSpan(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.BaseURL+"/publish", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", sc.Traceparent())
	resp, err := b.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("share: publish: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// Fetch implements core.BusReader by GETting /fetch.
func (b *Bus) Fetch(ctx context.Context, from core.Cursor) ([]core.Delta, core.Cursor, error) {
	resp, err := b.getJSON(ctx, "/fetch?cursor="+url.QueryEscape(from.String()))
	if err != nil {
		return nil, from, err
	}
	defer resp.Body.Close()
	var fr fetchResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return nil, from, err
	}
	next, err := core.ParseCursor(fr.Cursor)
	if err != nil {
		return nil, from, fmt.Errorf("share: fetch: bad cursor %q: %w", fr.Cursor, err)
	}
	deltas := make([]core.Delta, 0, len(fr.Deltas))
	for _, wd := range fr.Deltas {
		d, err := fromWireDelta(wd)
		if err != nil {
			return nil, from, err
		}
		deltas = append(deltas, d)
	}
	return deltas, next, nil
}

// Horizon implements core.BusReader by GETting /horizon.
func (b *Bus) Horizon(ctx context.Context) (core.Cursor, error) {
	resp, err := b.getJSON(ctx, "/horizon")
	if err != nil {
		return core.Cursor{}, err
	}
	defer resp.Body.Close()
	var hr horizonResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return core.Cursor{}, err
	}
	return core.ParseCursor(hr.Cursor)
}

// getJSON GETs path; any status but 200 is an error.
func (b *Bus) getJSON(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("share: %s: %s", path, resp.Status)
	}
	return resp, nil
}

// Reconnect backoff bounds for Subscribe's stream pump.
const (
	watchBackoffMin = 250 * time.Millisecond
	watchBackoffMax = 2 * time.Second
)

// subscribeBuffer is the delivery channel's capacity; the pump blocks
// (and the HTTP stream backpressures) when a subscriber lags further,
// so a slow consumer never costs unbounded memory or lost deltas.
const subscribeBuffer = 16

// Subscribe implements core.BusWatcher over a long-lived /watch stream.
// The pump reconnects with truncated exponential backoff (250ms–2s)
// from the last delivered position, so deltas are delivered exactly
// once and in order across connection failures. Cancel the context or
// call the CancelFunc to release the stream.
func (b *Bus) Subscribe(ctx context.Context, from core.Cursor) (<-chan core.Delta, core.CancelFunc, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	out := make(chan core.Delta, subscribeBuffer)
	stop := make(chan struct{})
	go b.pump(ctx, from, out, stop)
	var once sync.Once
	return out, func() { once.Do(func() { close(stop) }) }, nil
}

func (b *Bus) pump(ctx context.Context, cur core.Cursor, out chan<- core.Delta, stop <-chan struct{}) {
	defer close(out)
	backoff := watchBackoffMin
	deliver := func(d core.Delta) bool {
		select {
		case out <- d:
			return true
		case <-ctx.Done():
			return false
		case <-stop:
			return false
		}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		default:
		}
		next, streamed, err := b.watchOnce(ctx, cur, deliver, stop)
		cur = next
		if streamed {
			backoff = watchBackoffMin // the connection was healthy; reset
		}
		if err == nil && ctx.Err() == nil {
			// Clean EOF (server restart, LB idle timeout): reconnect fast.
			continue
		}
		if ctx.Err() != nil {
			return
		}
		if !sleepOr(ctx, stop, backoff) {
			return
		}
		backoff = min(backoff*2, watchBackoffMax)
	}
}

// watchOnce opens one /watch stream and delivers its deltas, returning
// the cursor after the last delivered delta and whether any arrived.
func (b *Bus) watchOnce(ctx context.Context, from core.Cursor, deliver func(core.Delta) bool, stop <-chan struct{}) (core.Cursor, bool, error) {
	// Tie the request to both cancellation paths so closing the
	// subscription tears down the connection rather than leaking it.
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	go func() {
		select {
		case <-stop:
			rcancel()
		case <-rctx.Done():
		}
	}()
	resp, err := b.getJSON(rctx, "/watch?cursor="+url.QueryEscape(from.String()))
	if err != nil {
		return from, false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	cur, streamed := from, false
	for sc.Scan() {
		if err := rctx.Err(); err != nil {
			return cur, streamed, err
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue // heartbeat
		}
		var wd wireDelta
		if err := json.Unmarshal(line, &wd); err != nil {
			return cur, streamed, fmt.Errorf("share: watch: %w", err)
		}
		d, err := fromWireDelta(wd)
		if err != nil {
			return cur, streamed, err
		}
		if !deliver(d) {
			return cur, streamed, nil
		}
		cur = cur.Advance(d)
		streamed = true
	}
	return cur, streamed, sc.Err()
}

// sleepOr waits d, returning false if ctx or stop fired first.
func sleepOr(ctx context.Context, stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-stop:
		return false
	}
}
