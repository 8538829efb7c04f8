package grid

// BatchSpec is the /v1/batch sweep description: the existing experiment
// axes (machines x widths x optional window sweep x optional limited-bypass
// variants x workload suite), optionally sampled. Variants come from the
// same constructors the experiments use — machine.WithWindow's "-winN" naming,
// machine.IdealWithout's "Ideal-W-No-…" naming — so batch cells share cache
// keys with the figures that also compute them, on the coordinator's shared
// tier and on every worker.

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// BatchSpec describes one sweep. Validation errors wrap
// experiments.ErrBadSpec, which the server maps to HTTP 400.
type BatchSpec struct {
	// Machines are lower-case machine names ("baseline", "rb-limited",
	// "rb-full", "ideal", "staggered").
	Machines []string `json:"machines"`
	// Widths are execution widths; empty means [8].
	Widths []int `json:"widths,omitempty"`
	// Windows optionally sweeps the reservation-window size (the sweeps
	// artifact's axis); empty keeps each machine's Table-2 window.
	Windows []int `json:"windows,omitempty"`
	// NoBypassLevels adds Figure-14-style Ideal machines with the named
	// bypass levels removed; each entry is a comma list ("2" or "1,2").
	NoBypassLevels []string `json:"no_bypass_levels,omitempty"`
	// Workloads names explicit workloads; empty uses Suite.
	Workloads []string `json:"workloads,omitempty"`
	// Suite is "SPECint95", "SPECint2000", or "all" (the default).
	Suite string `json:"suite,omitempty"`
	// Sampled switches every cell to the SMARTS estimator.
	Sampled *experiments.SampleSpec `json:"sampled,omitempty"`
}

// badSpec wraps experiments.ErrBadSpec so rbserve's error taxonomy (bad
// spec -> 400) covers batch parsing with the rule it already has.
func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: %s", experiments.ErrBadSpec, fmt.Sprintf(format, args...))
}

// Cells validates the spec and expands it into the cell list, in a
// deterministic order (machines x widths x windows x bypass variants, then
// workloads).
func (b *BatchSpec) Cells() ([]CellRequest, error) {
	if len(b.Machines) == 0 && len(b.NoBypassLevels) == 0 {
		return nil, badSpec("empty sweep: need machines or no-bypass-levels")
	}
	widths := b.Widths
	if len(widths) == 0 {
		widths = []int{8}
	}
	wls, err := b.workloads()
	if err != nil {
		return nil, err
	}
	if b.Sampled != nil {
		if err := b.Sampled.Validate(); err != nil {
			return nil, err
		}
	}
	var cfgs []machine.Config
	for _, width := range widths {
		for _, name := range b.Machines {
			cfg, err := machine.ByName(name, width)
			if err != nil {
				return nil, badSpec("%v", err)
			}
			if len(b.Windows) == 0 {
				cfgs = append(cfgs, cfg)
				continue
			}
			for _, win := range b.Windows {
				wcfg, err := machine.WithWindow(cfg, win)
				if err != nil {
					return nil, badSpec("%v", err)
				}
				cfgs = append(cfgs, wcfg)
			}
		}
		for _, spec := range b.NoBypassLevels {
			cfg, err := machine.IdealWithout(width, spec)
			if err != nil {
				return nil, badSpec("%v", err)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	cells := make([]CellRequest, 0, len(cfgs)*len(wls))
	for _, cfg := range cfgs {
		for _, w := range wls {
			cells = append(cells, CellRequest{Config: cfg, Workload: w, Sampled: b.Sampled})
		}
	}
	return cells, nil
}

// workloads resolves the spec's workload axis.
func (b *BatchSpec) workloads() ([]string, error) {
	if len(b.Workloads) > 0 {
		if b.Suite != "" {
			return nil, badSpec("workloads and suite are mutually exclusive")
		}
		for _, name := range b.Workloads {
			if _, ok := workload.ByName(name); !ok {
				return nil, badSpec("unknown workload %q", name)
			}
		}
		return b.Workloads, nil
	}
	suite := b.Suite
	if suite == "" {
		suite = "all"
	}
	wls, err := workload.Suite(suite)
	if err != nil {
		return nil, badSpec("%v", err)
	}
	names := make([]string, len(wls))
	for i, w := range wls {
		names[i] = w.Name
	}
	return names, nil
}
