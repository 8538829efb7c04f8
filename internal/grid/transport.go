package grid

// Transports: how the router reaches a worker. The Local transport wraps an
// in-process harness (the single-process server, and the goroutine-backed
// fake workers of the differential tests); the HTTP transport POSTs the
// cell to a remote worker's /v1/cell endpoint through the RetryClient.
// Because cells are deterministic and keyed, the two are interchangeable —
// the differential tests run the same sweep through both and assert
// byte-identical results.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/experiments"
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

// Local computes cells in-process on a harness. It is the degenerate
// one-worker grid (a coordinator with no -workers) and the fake worker of
// the in-process differential tests.
type Local struct {
	Harness *experiments.Harness
	// Label names the worker; "" means "local".
	Label string
}

// Name implements Transport.
func (l *Local) Name() string {
	if l.Label == "" {
		return "local"
	}
	return l.Label
}

// RunCell implements Transport. Full cells run inline on the calling
// goroutine (the router's in-flight semaphore is the CPU bound); sampled
// cells fan their sample windows out over the harness's own pool.
func (l *Local) RunCell(ctx context.Context, req *CellRequest) (*CellResult, error) {
	return RunLocal(ctx, l.Harness, req, nil)
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

// RunCell implements Transport. A 4xx from the worker (other than the
// retryable 429, which the client already retried) is the request's fault
// and wraps ErrBadCell; transport errors and exhausted 5xx/429 retries are
// the worker's and trigger failover in the router.
func (t *HTTP) RunCell(ctx context.Context, req *CellRequest) (*CellResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCell, err)
	}
	cl := t.Client
	if cl == nil {
		cl = &RetryClient{}
	}
	resp, status, err := cl.Post(ctx, t.Base+"/v1/cell", "application/json", body)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", t.Base, err)
	}
	if status >= 400 && status < 500 && status != http.StatusTooManyRequests {
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
