package core

import (
	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Buffers holds every per-run allocation a Simulator needs — the per-trace
// timing slices, a decode the run builds for itself (Decode), the uop slab,
// the fetch ring, the cache hierarchy, and the branch predictor — so sweep
// drivers that simulate many cells back to back (figure benchmarks, the
// sampler's measurement windows) reuse memory instead of reallocating tens
// of bytes per trace entry per cell.
//
// A Buffers is owned by one run at a time: it is NOT safe for concurrent
// use. Concurrent drivers keep one per worker (experiments.Harness does this
// with a sync.Pool). The zero value is ready to use.
type Buffers struct {
	prod        []prodRecord
	done        []int64
	dispCluster []int8
	waiterHead  []int32
	pool        []uop
	fetchQ      []fetchEntry
	calBuf      []int32

	// dec builds the decodes of Decode.
	dec Decoder

	hier    *mem.Hierarchy
	hierCfg mem.HierarchyConfig
	pred    *branch.Predictor
}

// NewBuffers returns an empty buffer set.
func NewBuffers() *Buffers { return &Buffers{} }

// grown returns s resized to n elements, reusing the backing array when it
// is large enough. Contents are unspecified; callers initialize what they
// read.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Decode builds a timing trace in the buffer's own Decoder, reusing its
// arrays: it empties the decoder for a stream of about n entries and calls
// fill to add the stream's entries. The decode lives in b, for a run on b,
// until b's next Decode.
func (b *Buffers) Decode(n int, fill func(*Decoder) error) (*Decoded, error) {
	b.dec.reset(n, 0)
	if err := fill(&b.dec); err != nil {
		return nil, err
	}
	return &b.dec.d, b.dec.d.err
}

// hierarchy returns a reset hierarchy for cfg, reusing the cached one when
// the geometry matches (sweeps vary width/bypass far more often than cache
// configuration).
func (b *Buffers) hierarchy(cfg mem.HierarchyConfig) *mem.Hierarchy {
	if b.hier != nil && b.hierCfg == cfg {
		b.hier.Reset()
		return b.hier
	}
	b.hier = mem.MustHierarchy(cfg)
	b.hierCfg = cfg
	return b.hier
}

// predictor returns a reset predictor, reusing the cached tables.
func (b *Buffers) predictor() *branch.Predictor {
	if b.pred != nil {
		b.pred.Reset()
		return b.pred
	}
	b.pred = branch.New()
	return b.pred
}

// Run is the one full-trace convenience: it decodes trace into b
// (Decode) and runs the decode with core.Run, drawing all per-run
// allocations from b.
func (b *Buffers) Run(cfg machine.Config, workload string, trace []emu.TraceEntry) (*Result, error) {
	dec, err := b.Decode(len(trace), func(d *Decoder) error {
		for i := range trace {
			d.Add(&trace[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Run(cfg, workload, dec, Options{Buffers: b})
}
