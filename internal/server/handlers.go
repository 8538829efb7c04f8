package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// runArtifact computes one named artifact through run: the server's runner
// (the router in coordinator mode), or a TeeRunner wrapping it when
// /v1/batch streams cells. A name is one of experiments.Artifacts, or "ipc",
// the server's width/suite-parameterized IPCComparison.
func runArtifact(ctx context.Context, run experiments.Runner, name string, width int, suite string) (experiments.Artifact, error) {
	if name == "ipc" {
		return experiments.IPCComparison(ctx, run, width, suite)
	}
	a, ok := experiments.ArtifactByName(name)
	if !ok {
		return nil, errUnknownArtifact(name)
	}
	return a.Run(ctx, run)
}

// errUnknownArtifact names every artifact runArtifact serves.
func errUnknownArtifact(name string) error {
	return fmt.Errorf("unknown artifact %q (have %s, ipc)", name, strings.Join(experiments.ArtifactNames(), ", "))
}

// cachedResponse is a fully rendered response body in the LRU.
type cachedResponse struct {
	body        []byte
	contentType string
}

// serveCached runs compute through the response cache and writes the
// resulting body; concurrent identical requests coalesce onto one
// computation and repeats are served from memory.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, compute func() (cachedResponse, error)) {
	v, _, err := s.resp.Do(r.Context(), key, func() (any, int64, error) {
		cr, err := compute()
		if err != nil {
			return nil, 0, err
		}
		return cr, int64(len(cr.body)), nil
	})
	if err != nil {
		s.failRequest(w, r, err)
		return
	}
	cr := v.(cachedResponse)
	w.Header().Set("Content-Type", cr.contentType)
	w.Write(cr.body)
}

// handleExperiment serves one paper artifact:
//
//	GET /v1/experiment/fig9?format=text
//	GET /v1/experiment/ipc?width=4&suite=SPECint95
//
// format=json (default) returns the artifact's data structure; format=text
// returns byte-identical output to `rbexp -exp <name>`.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "text" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want json or text)", format))
		return
	}
	width, suite, ok := s.artifactParams(w, q, name)
	if !ok {
		return
	}
	key := strings.Join([]string{"exp", name, strconv.Itoa(width), suite, format}, "|")
	s.serveCached(w, r, key, func() (cachedResponse, error) {
		res, err := runArtifact(r.Context(), s.runner(), name, width, suite)
		if err != nil {
			return cachedResponse{}, err
		}
		if format == "text" {
			b, err := experiments.RenderText(res)
			if err != nil {
				return cachedResponse{}, err
			}
			return cachedResponse{body: b, contentType: "text/plain; charset=utf-8"}, nil
		}
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return cachedResponse{}, err
		}
		return cachedResponse{body: append(b, '\n'), contentType: "application/json"}, nil
	})
}

// SimResponse is the /v1/sim body: the raw result plus its derived rates.
type SimResponse struct {
	*core.Result
	IPC            float64 `json:"ipc"`
	MispredictRate float64 `json:"mispredict_rate"`
	AvgOccupancy   float64 `json:"avg_occupancy"`
	Backend        string  `json:"backend"`
}

// handleSim runs one workload on one machine model:
//
//	GET /v1/sim?workload=compress&machine=rb-full&width=8
//	GET /v1/sim?workload=mcf&machine=ideal&no-bypass-levels=1,2&check=true
//	GET /v1/sim?workload=mcf&machine=rb-full&samples=10&warmup=2000&measure=2000
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	wlName := q.Get("workload")
	if wlName == "" {
		writeError(w, http.StatusBadRequest, "missing workload parameter")
		return
	}
	wl, ok := workload.ByName(wlName)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown workload %q (see /v1/workloads)", wlName))
		return
	}
	machName := strings.ToLower(q.Get("machine"))
	if machName == "" {
		machName = "ideal"
	}
	width, err := intParam(q.Get("width"), 8)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad width: "+err.Error())
		return
	}
	noLevels := q.Get("no-bypass-levels")
	cfg, err := machine.ByNameWithout(machName, width, noLevels)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	checked, err := boolParam(q.Get("check"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad check: "+err.Error())
		return
	}
	wrongPath, err := boolParam(q.Get("wrong-path"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad wrong-path: "+err.Error())
		return
	}
	schedName := q.Get("sched")
	if schedName == "" {
		schedName = core.BackendEvent.String()
	}
	backend, err := core.ParseBackend(schedName)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if q.Get("ci-target") != "" && q.Get("samples") == "" {
		writeError(w, http.StatusBadRequest, "ci-target requires samples (it sets the starting cell count)")
		return
	}
	if q.Get("samples") != "" {
		if checked || wrongPath || q.Get("sched") != "" {
			writeError(w, http.StatusBadRequest,
				"samples cannot be combined with check, wrong-path, or sched (sampled cells run the default event backend without datapath verification)")
			return
		}
		spec, err := sampleSpecFromQuery(q)
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if v := q.Get("ci-target"); v != "" {
			target, err := strconv.ParseFloat(v, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad ci-target: "+err.Error())
				return
			}
			s.serveAdaptiveSim(w, r, cfg, wl, *spec, target)
			return
		}
		s.serveSampledSim(w, r, cfg, wl, *spec)
		return
	}

	key := strings.Join([]string{
		"sim", cfg.Name, wl.Name, noLevels,
		strconv.FormatBool(checked), strconv.FormatBool(wrongPath), backend.String(),
	}, "|")
	s.serveCached(w, r, key, func() (cachedResponse, error) {
		// check=true arms the commit-time check and wrong-path=true fetches
		// down the wrong path; each steps an emulator of its own.
		prog, err := wl.Program()
		if err != nil {
			return cachedResponse{}, err
		}
		dec, err := wl.Decoded()
		if err != nil {
			return cachedResponse{}, err
		}
		opt := core.Options{Backend: backend}
		if checked {
			opt.Oracle = emu.New(prog)
		}
		if wrongPath {
			opt.WrongPath = emu.New(prog)
		}
		var (
			res  *core.Result
			rerr error
		)
		if err := s.runInPool(r.Context(), func() {
			res, rerr = core.Run(cfg, wl.Name, dec, opt)
		}); err != nil {
			return cachedResponse{}, err
		}
		if rerr != nil {
			return cachedResponse{}, rerr
		}
		body, err := json.MarshalIndent(SimResponse{
			Result:         res,
			IPC:            res.IPC(),
			MispredictRate: res.MispredictRate(),
			AvgOccupancy:   res.AvgOccupancy(),
			Backend:        backend.String(),
		}, "", "  ")
		if err != nil {
			return cachedResponse{}, err
		}
		return cachedResponse{body: append(body, '\n'), contentType: "application/json"}, nil
	})
}

// SampledSimResponse is the /v1/sim body when samples= is present: the
// sampled estimate with its confidence interval instead of a full Result.
type SampledSimResponse struct {
	*experiments.SampledResult
	RelCI float64 `json:"rel_ci"`
}

// serveSampledSim runs the SMARTS-sampled estimator for one cell:
//
//	GET /v1/sim?workload=mcf&machine=rb-full&samples=10&warmup=2000&measure=2000
//
// The harness's checkpoint library and sample-cell caches make repeated
// requests (and requests sharing a fast-forward) cheap.
func (s *Server) serveSampledSim(w http.ResponseWriter, r *http.Request, cfg machine.Config, wl *workload.Workload, spec experiments.SampleSpec) {
	key := strings.Join([]string{
		"simsampled", cfg.Name, wl.Name,
		fmt.Sprintf("%d/%d/%d/%d", spec.Samples, spec.Warmup, spec.Measure, spec.FFWarm),
	}, "|")
	s.serveCached(w, r, key, func() (cachedResponse, error) {
		res, err := s.harness.RunSampled(r.Context(), cfg, wl, spec)
		if err != nil {
			return cachedResponse{}, err
		}
		body, err := json.MarshalIndent(SampledSimResponse{
			SampledResult: res,
			RelCI:         res.RelCI(),
		}, "", "  ")
		if err != nil {
			return cachedResponse{}, err
		}
		return cachedResponse{body: append(body, '\n'), contentType: "application/json"}, nil
	})
}

// AdaptiveSimResponse is the /v1/sim body when ci-target= is present: the
// variance-adaptive estimate with its convergence trail.
type AdaptiveSimResponse struct {
	*experiments.AdaptiveResult
	RelCI float64 `json:"rel_ci"`
}

// serveAdaptiveSim runs the variance-adaptive estimator for one cell:
//
//	GET /v1/sim?workload=mcf&machine=rb-full&samples=4&ci-target=0.02
//
// Rounds double the cell count from samples= until the relative CI
// half-width meets the target; the nested slot grid means every round
// reuses all previously simulated cells.
func (s *Server) serveAdaptiveSim(w http.ResponseWriter, r *http.Request, cfg machine.Config, wl *workload.Workload, spec experiments.SampleSpec, target float64) {
	key := strings.Join([]string{
		"simadaptive", cfg.Name, wl.Name,
		fmt.Sprintf("%d/%d/%d/%d", spec.Samples, spec.Warmup, spec.Measure, spec.FFWarm),
		strconv.FormatFloat(target, 'g', -1, 64),
	}, "|")
	s.serveCached(w, r, key, func() (cachedResponse, error) {
		res, err := s.harness.RunSampledAdaptive(r.Context(), cfg, wl, spec, target)
		if err != nil {
			return cachedResponse{}, err
		}
		body, err := json.MarshalIndent(AdaptiveSimResponse{
			AdaptiveResult: res,
			RelCI:          res.RelCI(),
		}, "", "  ")
		if err != nil {
			return cachedResponse{}, err
		}
		return cachedResponse{body: append(body, '\n'), contentType: "application/json"}, nil
	})
}

// CheckResponse is the /v1/check body.
type CheckResponse struct {
	Layer   string         `json:"layer"`
	Full    bool           `json:"full"`
	Seed    int64          `json:"seed"`
	Passed  bool           `json:"passed"`
	Reports []check.Report `json:"reports"`
}

// checkLayer looks a verification layer up in check.Layers; "all" runs
// the whole suite.
func checkLayer(name string) (func(check.Options) []check.Report, error) {
	if name == "all" {
		return check.Run, nil
	}
	names := []string{"all"}
	for _, l := range check.Layers {
		if l.Name == name {
			return l.Run, nil
		}
		names = append(names, l.Name)
	}
	last := len(names) - 1
	return nil, fmt.Errorf("unknown layer %q (want %s, or %s)", name, strings.Join(names[:last], ", "), names[last])
}

// handleCheck runs the differential verification suite on demand:
//
//	GET /v1/check?layer=adders
//	GET /v1/check?layer=all&full=true&seed=7
//
// layer is "all" (the default) or one name of check.Layers; full selects
// the deep tier and seed the randomized trials' seed, as on rbcheck.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	layer := q.Get("layer")
	if layer == "" {
		layer = "all"
	}
	full, err := boolParam(q.Get("full"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad full: "+err.Error())
		return
	}
	var seed int64
	if v := q.Get("seed"); v != "" {
		seed, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad seed: "+err.Error())
			return
		}
	}
	runLayer, err := checkLayer(layer)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	key := strings.Join([]string{"check", layer, strconv.FormatBool(full), strconv.FormatInt(seed, 10)}, "|")
	s.serveCached(w, r, key, func() (cachedResponse, error) {
		opts := check.Options{Full: full, Seed: seed}
		var reports []check.Report
		if err := s.runInPool(r.Context(), func() { reports = runLayer(opts) }); err != nil {
			return cachedResponse{}, err
		}
		body, err := json.MarshalIndent(CheckResponse{
			Layer: layer, Full: full, Seed: seed,
			Passed: check.Passed(reports), Reports: reports,
		}, "", "  ")
		if err != nil {
			return cachedResponse{}, err
		}
		return cachedResponse{body: append(body, '\n'), contentType: "application/json"}, nil
	})
}

// WorkloadInfo is one entry of the /v1/workloads listing.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Suite       string `json:"suite"`
	Description string `json:"description"`
}

// handleWorkloads lists the 20 synthetic benchmarks.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []WorkloadInfo
	for _, wl := range workload.All() {
		out = append(out, WorkloadInfo{Name: wl.Name, Suite: wl.Suite, Description: wl.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// runInPool executes fn on the shared worker pool and waits for it,
// bounding request CPU at the pool's width. Submission respects ctx; once
// running, fn is not interruptible (simulations have no abort points).
func (s *Server) runInPool(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	if err := s.pool.Submit(ctx, func() {
		defer close(done)
		fn()
	}); err != nil {
		return err
	}
	<-done
	return nil
}

// intParam parses an optional integer query parameter.
func intParam(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

// boolParam parses an optional boolean query parameter (default false).
func boolParam(v string) (bool, error) {
	if v == "" {
		return false, nil
	}
	return strconv.ParseBool(v)
}
