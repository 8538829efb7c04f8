package grid

// Transports: how the router reaches a worker. The HTTP transport POSTs the
// cell to a remote worker's /v1/cell endpoint through the RetryClient; the
// worker computes it with RunLocal. Tests substitute goroutine-backed fakes.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Transport runs one cell on one worker.
type Transport interface {
	// RunCell computes (or fetches) the cell. Errors wrapping ErrBadCell are
	// permanent — the request is invalid and failover cannot help; any other
	// error counts against the worker and triggers failover.
	RunCell(ctx context.Context, req *CellRequest) (*CellResult, error)
	// Name identifies the worker for rendezvous hashing and metrics; it must
	// be unique and stable within a router.
	Name() string
}

// HTTP reaches a remote worker's /v1/cell endpoint.
type HTTP struct {
	// Base is the worker's base URL, e.g. "http://127.0.0.1:8081".
	Base string
	// Client is the retrying HTTP client; nil uses a zero RetryClient.
	Client *RetryClient
}

// Name implements Transport: the base URL identifies the worker.
func (t *HTTP) Name() string { return t.Base }

// RunCell implements Transport. A 429 is the worker's admission control
// shedding load: the worker is at capacity, not failing, so RunCell waits
// out its Retry-After hint and asks the same worker again until ctx ends,
// and backpressure never reaches the router's breaker or failover. Any
// other 4xx is the request's fault and wraps ErrBadCell; transport errors
// and exhausted 5xx retries are the worker's and trigger failover in the
// router.
func (t *HTTP) RunCell(ctx context.Context, req *CellRequest) (*CellResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCell, err)
	}
	cl := t.Client
	if cl == nil {
		cl = &RetryClient{}
	}
	var (
		resp   []byte
		status int
	)
	for {
		var hint time.Duration
		resp, status, hint, err = cl.post(ctx, t.Base+"/v1/cell", "application/json", body)
		if err != nil || status != http.StatusTooManyRequests {
			break
		}
		if err = sleep(ctx, RetryDelay(0, cl.base(), hint)); err != nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", t.Base, err)
	}
	if status >= 400 && status < 500 {
		return nil, fmt.Errorf("%w: worker %s: %v", ErrBadCell, t.Base, &StatusError{Status: status, Body: resp})
	}
	if status < 200 || status >= 300 {
		return nil, fmt.Errorf("worker %s: %w", t.Base, &StatusError{Status: status, Body: resp})
	}
	var out CellResult
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, fmt.Errorf("worker %s: bad cell response: %w", t.Base, err)
	}
	return &out, nil
}
