// Package workload provides the 20 synthetic benchmarks used to reproduce
// the paper's SPECint95 and SPECint2000 evaluations.
//
// The original study ran the SPEC binaries (with modified inputs) under an
// Alpha execution-driven simulator; the SPEC sources and inputs are
// proprietary, so each benchmark here is a hand-written assembly program —
// a real kernel with loops, data-dependent branches, and a genuine memory
// footprint — flavored after the corresponding SPEC program's dominant
// behavior (hashing for compress/gzip, pointer chasing for gcc/mcf/li,
// bitboards for crafty, dispatch loops for m88ksim, and so on). Absolute
// IPCs differ from the paper's; the machine-to-machine comparisons the paper
// makes are driven by dependence-chain latency and bypass-hole structure,
// which these kernels exercise the same way (DESIGN.md §3).
//
// Concurrency: the package is safe for concurrent use. Program memoizes the
// assembled image under a mutex, and every caller shares it. Decoded serves
// each workload's timing trace (core.Decoded, about 25 bytes per committed
// instruction) from a cost-bounded cache: concurrent first callers for one
// workload coalesce onto one build, every caller shares the immutable
// result, and a decode evicted under the byte budget is rebuilt on its next
// use. This is what lets the experiment harness and rbserve fan (machine,
// workload) cells across a worker pool without copying traces. Trace
// returns a fresh full trace (64 bytes per entry) that the caller owns; no
// one else holds it, and nothing caches it. Only tools that inspect values
// need it: the simulator's run modes step emulators of their own.
//
// Every build counts, then fills: a plain emulator run counts the committed
// instructions (and, for a decode, the loads and stores among them), and a
// second run writes them into arrays allocated once at exactly those
// lengths (core.DecodeProgram, core.TraceProgram, emu.Trace). Nothing is
// grown by append and then copied, so a build allocates what it keeps plus
// the two emulators' memory pages and, for a decode, the decoder's store
// map.
package workload

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rcache"
)

// Workload is one synthetic benchmark.
type Workload struct {
	// Name is the benchmark's (SPEC-flavored) name.
	Name string
	// Suite is "SPECint95" or "SPECint2000".
	Suite string
	// Description summarizes the kernel's character.
	Description string
	// Source is the assembly text.
	Source string
	// MaxInsts bounds the functional run (the program halts well before).
	MaxInsts int64
}

// Program assembles the workload (cached).
func (w *Workload) Program() (*isa.Program, error) {
	return programCache.get(w)
}

// Trace runs the workload to completion on the functional emulator and
// returns the committed instruction stream, a fresh copy the caller owns
// (emu.Trace). When the workload's timing trace is not cached,
// core.TraceProgram builds both from one fill pass and leaves the decode in
// the cache for Decoded.
func (w *Workload) Trace() ([]emu.TraceEntry, error) {
	p, err := programCache.get(w)
	if err != nil {
		return nil, err
	}
	var trace []emu.TraceEntry
	if _, ok := traceCache.Get(w.Name); !ok {
		if _, _, err := traceCache.Do(context.Background(), w.Name, func() (any, int64, error) {
			var dec *core.Decoded
			var err error
			if trace, dec, err = core.TraceProgram(p, w.MaxInsts); err != nil {
				return nil, 0, fmt.Errorf("workload %s: %w", w.Name, err)
			}
			return dec, dec.Bytes(), nil
		}); err != nil {
			return nil, err
		}
	}
	if trace == nil {
		// The decode was cached, or another caller built it: trace alone.
		if trace, err = emu.Trace(p, w.MaxInsts); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return trace, nil
}

// Decoded returns the workload's timing trace (core.Decoded), built on first
// use (core.DecodeProgram) and cached: every simulation of the workload
// shares it (core.New).
func (w *Workload) Decoded() (*core.Decoded, error) {
	v, _, err := traceCache.Do(context.Background(), w.Name, func() (any, int64, error) {
		p, err := programCache.get(w)
		if err != nil {
			return nil, 0, err
		}
		dec, err := core.DecodeProgram(p, w.MaxInsts)
		if err != nil {
			return nil, 0, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		return dec, dec.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Decoded), nil
}

// traceCacheBudget bounds the timing traces the process keeps, in bytes.
// The twenty workloads' traces take about 65 MB together.
const traceCacheBudget = 128 << 20

// traceCache holds each workload's timing trace under its name. A single
// shard: the budget covers all of them, and a miss is a whole emulator run.
var traceCache = rcache.New(1, traceCacheBudget)

type progCache struct {
	mu sync.Mutex
	m  map[string]*isa.Program
}

var programCache = &progCache{m: map[string]*isa.Program{}}

func (c *progCache) get(w *Workload) (*isa.Program, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[w.Name]; ok {
		return p, nil
	}
	p, err := asm.Assemble(w.Source)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	c.m[w.Name] = p
	return p, nil
}

// SPECint95 returns the eight SPECint95-flavored workloads.
func SPECint95() []*Workload { return spec95 }

// SPECint2000 returns the twelve SPECint2000-flavored workloads.
func SPECint2000() []*Workload { return spec2000 }

// All returns all twenty workloads, SPECint95 first.
func All() []*Workload {
	out := make([]*Workload, 0, len(spec95)+len(spec2000))
	out = append(out, spec95...)
	out = append(out, spec2000...)
	return out
}

// Suite resolves a suite name — SPECint95, SPECint2000 or all — to its
// workloads.
func Suite(name string) ([]*Workload, error) {
	switch name {
	case "SPECint95":
		return SPECint95(), nil
	case "SPECint2000":
		return SPECint2000(), nil
	case "all":
		return All(), nil
	}
	return nil, fmt.Errorf("unknown suite %q (want SPECint95, SPECint2000, or all)", name)
}

// ByName finds a workload.
func ByName(name string) (*Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// Random input data is generated on the Go side and embedded as .data
// sections: the benchmarks' unpredictable values are *inputs*, as they are
// for the real SPEC programs, so the simulated code reads them from memory
// rather than computing a PRNG inline. (The paper's §5.2 observation that
// most last-arriving operands come from loads depends on this structure.)

// rng is a splitmix64-style generator for building workload input data.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// dataQuads emits a .data section of n pseudo-random quads at base, each
// value transformed by f (nil = identity).
func dataQuads(base uint64, n int, seed uint64, f func(uint64) uint64) string {
	r := &rng{s: seed}
	var b strings.Builder
	fmt.Fprintf(&b, "        .data 0x%x\n", base)
	for i := 0; i < n; i++ {
		v := r.next()
		if f != nil {
			v = f(v)
		}
		if i%4 == 0 {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString("        .quad ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", int64(v))
	}
	b.WriteByte('\n')
	return b.String()
}

// dataBytes emits a .data section of n pseudo-random bytes at base, each
// masked/transformed by f (nil = identity on the low byte).
func dataBytes(base uint64, n int, seed uint64, f func(uint64) uint64) string {
	r := &rng{s: seed}
	var b strings.Builder
	fmt.Fprintf(&b, "        .data 0x%x\n", base)
	for i := 0; i < n; i++ {
		v := r.next()
		if f != nil {
			v = f(v)
		}
		if i%16 == 0 {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString("        .byte ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v&0xff)
	}
	b.WriteByte('\n')
	return b.String()
}

// tapeData emits the standard 2048-quad (16KB) input tape at base.
func tapeData(base uint64, seed uint64) string {
	return dataQuads(base, 2048, seed, nil)
}

// tapeSetup emits the register initialization for the input tape: r24 holds
// the tape base and r25 the cursor.
func tapeSetup(base string) string {
	return fmt.Sprintf(`        li   r24, %s            ; input tape base
        clr  r25                 ; tape cursor
`, base)
}

// tapeNext emits a read of the next tape quad into dst (wrapping every 2048
// entries). It clobbers r23.
func tapeNext(dst string) string {
	return fmt.Sprintf(`        and  r25, #2047, r23
        s8addq r23, r24, r23
        ldq  %s, 0(r23)
        addq r25, #1, r25
`, dst)
}
