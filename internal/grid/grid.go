// Package grid promotes the single-process rbserve service to a
// coordinator/worker grid: the (machine, workload) cells of an experiment
// sweep are routed by rendezvous hashing of the cell cache key across N
// worker processes, behind a coordinator-side shared result-cache tier, a
// per-worker circuit breaker, and a Retry-After-aware retrying HTTP client.
//
// The paper's figures are grids of independent deterministic cells, which
// is what makes distribution sound: a cell computes the same bytes on any
// worker, so the only correctness obligations are routing (every cell
// exactly once — the shared rcache tier dedups), failover (a cell whose
// worker dies reroutes down its rendezvous preference list), and transport
// fidelity (machine.Config and core.Result round-trip JSON exactly; see
// bypass.Config's custom JSON methods). DESIGN.md §16 documents the
// architecture; the differential tests in this package prove byte-identity
// against the serial harness across worker counts and mid-sweep failures.
//
// Layering: grid sits above internal/experiments (a Router is an
// experiments.Runner, so every figure runs distributed unchanged) and below
// internal/server (which mounts the worker /v1/cell endpoint and the
// coordinator /v1/batch streaming endpoint).
package grid

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// ErrBadCell marks a permanently invalid cell request: the worker (or local
// validation, or the alias guard of experiments.CachedCell) rejected its
// parameters, so retrying on another worker cannot help. It maps to HTTP
// 400.
var ErrBadCell = experiments.ErrBadCell

// ErrNoWorkers reports that every worker was tried (or shed by its breaker)
// and none could run the cell. It maps to HTTP 503: the grid is degraded,
// not the request wrong.
var ErrNoWorkers = errors.New("grid: no workers available")

// CellRequest identifies one cell of an experiment grid: a full machine
// configuration (self-contained over the wire), a workload name, and an
// optional sampling spec selecting the SMARTS estimator instead of a full
// run.
type CellRequest struct {
	Config   machine.Config          `json:"config"`
	Workload string                  `json:"workload"`
	Sampled  *experiments.SampleSpec `json:"sampled,omitempty"`
}

// Key is the cell's identity, experiments.CellKey — used for rendezvous
// routing, for the shared result-cache tier, and by every worker's harness
// cache, so a cell is never recomputed anywhere in the grid once any tier
// has seen it.
func (c *CellRequest) Key() string { return experiments.CellKey(&c.Config, c.Workload, c.Sampled) }

// Validate rejects malformed requests before any routing; errors wrap
// ErrBadCell.
func (c *CellRequest) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCell, err)
	}
	if c.Config.Name == "" {
		return fmt.Errorf("%w: config has no name", ErrBadCell)
	}
	if _, ok := workload.ByName(c.Workload); !ok {
		return fmt.Errorf("%w: unknown workload %q", ErrBadCell, c.Workload)
	}
	if c.Sampled != nil {
		if err := c.Sampled.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadCell, err)
		}
	}
	return nil
}

// CellResult is one computed cell: exactly one of Result (full run) or
// Sampled (SMARTS estimate) is set, matching the request. All fields of
// both payloads are exported integers/floats, so the JSON round trip is
// exact and a result computed remotely is byte-identical to a local one.
type CellResult struct {
	Key     string                     `json:"key"`
	Result  *core.Result               `json:"result,omitempty"`
	Sampled *experiments.SampledResult `json:"sampled,omitempty"`
}

// IPC returns the cell's headline estimate regardless of mode.
func (r *CellResult) IPC() float64 {
	if r.Sampled != nil {
		return r.Sampled.MeanIPC
	}
	if r.Result != nil {
		return r.Result.IPC()
	}
	return 0
}

// RunLocal computes one cell on a harness: a worker's /v1/cell endpoint
// and a single-process server's /v1/batch share this path, so a cell is
// computed by the same code wherever it runs. A full cell runs through run
// (the server passes its pool); a sampled cell fans its windows over the
// harness's own pool, so it runs outside run.
func RunLocal(ctx context.Context, h *experiments.Harness, req *CellRequest, run func(context.Context, func()) error) (*CellResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	w, _ := workload.ByName(req.Workload) // Validate checked existence
	out := &CellResult{Key: req.Key()}
	var err error
	if req.Sampled != nil {
		out.Sampled, err = h.RunSampled(ctx, req.Config, w, *req.Sampled)
	} else if perr := run(ctx, func() { out.Result, err = h.RunCell(ctx, req.Config, w) }); perr != nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
