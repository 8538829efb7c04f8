// Package ckpt implements architectural checkpoints: a deterministic,
// versioned snapshot of everything needed to resume a simulation mid-stream —
// the emulator's registers and memory pages, the cache hierarchy's tag
// arrays, the branch predictor's tables, and the workload cursor (name +
// committed instruction count). Checkpoints have a fast copy-on-write
// in-memory form (State) and an on-disk binary form (Write/Read), and hash
// deterministically so sampled-simulation cells can be cached by content.
package ckpt

import (
	"fmt"
	"hash/fnv"

	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/mem"
)

// State is an in-memory checkpoint. Memory pages are shared copy-on-write
// with the emulator they were captured from, so capture cost is O(pages)
// pointer copies, not a footprint copy.
type State struct {
	// Workload names the program this state belongs to; resuming under a
	// different program is undefined (the decoder only guarantees the state
	// is well-formed, not that it matches).
	Workload string
	// Arch is the architectural machine state (registers, PC, memory, and
	// the committed instruction count, which doubles as the workload cursor).
	Arch *emu.State
	// Hier is the warm cache-tag state.
	Hier mem.HierState
	// Pred is the warm branch-predictor state.
	Pred *branch.PredictorState
}

// Capture snapshots an in-flight simulation. The emulator, hierarchy, and
// predictor all keep running afterwards; hier or pred may be nil, in which
// case the checkpoint records cold (empty) warm state.
func Capture(workload string, e *emu.Emulator, h *mem.Hierarchy, p *branch.Predictor) *State {
	return join(workload, e.State(), h, p)
}

// join pairs an architectural state with the current warm state of h and p
// (cold where nil).
func join(workload string, arch *emu.State, h *mem.Hierarchy, p *branch.Predictor) *State {
	st := &State{Workload: workload, Arch: arch}
	if h != nil {
		st.Hier = h.State()
	}
	if p != nil {
		st.Pred = p.State()
	}
	return st
}

// Seq is the committed instruction count at capture (the workload cursor).
func (s *State) Seq() int64 { return s.Arch.Seq }

// Hash returns a hex digest of the canonical encoding: two states hash equal
// iff their encodings are byte-identical. It walks the full state (memory
// pages, cache tags, predictor tables), so it costs about a millisecond on a
// large checkpoint — use Fingerprint for cache keys.
func (s *State) Hash() string {
	h := fnv.New128a()
	// The encoder is deterministic (sorted page order, fixed field order),
	// so hashing the encoding is hashing the state. Write to a hash never
	// fails.
	_ = s.Write(h)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Fingerprint returns a cheap hex digest of the checkpoint's architectural
// identity: workload name, instruction position, PC, and register file.
// Simulations are deterministic, so on a given workload this pins the full
// state as precisely as hashing every page — the microarchitectural warm
// state is a pure function of (program, position, warming configuration) and
// the caller's cache key carries the warming configuration separately.
func (s *State) Fingerprint() string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	_, _ = h.Write([]byte(s.Workload))
	put(uint64(s.Arch.Seq))
	put(uint64(s.Arch.PC))
	for _, r := range s.Arch.Regs {
		put(r)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
