package emu_test

import (
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workload"
)

// collect is the committed stream as Run's callback sees it: the reference
// Trace's counted, in-place build must reproduce.
func collect(t *testing.T, prog *isa.Program, max int64) []emu.TraceEntry {
	t.Helper()
	var want []emu.TraceEntry
	if _, err := emu.New(prog).Run(max, func(te emu.TraceEntry) { want = append(want, te) }); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTraceMatchesRun: for every workload and a generated program, Trace
// holds exactly the entries Run hands its callback, in a slice allocated at
// its length.
func TestTraceMatchesRun(t *testing.T) {
	gen, err := workload.Generate(workload.GenParams{Name: "trace-gen", Iterations: 200, BranchTakenPercent: 70, MulOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(workload.All(), gen) {
		prog, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		got, err := emu.Trace(prog, w.MaxInsts)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		want := collect(t, prog, w.MaxInsts)
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("%s: trace len %d cap %d, Run committed %d", w.Name, len(got), cap(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d is %+v, Run committed %+v", w.Name, i, got[i], want[i])
			}
		}
	}
}

// TestTraceErrors: a runaway program and one that branches out of its image
// return no trace and the emulator's error.
func TestTraceErrors(t *testing.T) {
	for _, c := range []struct {
		src  string
		max  int64
		want string
	}{
		{"loop: br r31, loop", 1000, "emu: exceeded 1000 instructions without halting"},
		{"br r31, .+5", 10, "emu: pc 6 out of range [0,1)"},
	} {
		prog, err := asm.Assemble(c.src)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := emu.Trace(prog, c.max)
		if trace != nil || err == nil || err.Error() != c.want {
			t.Errorf("%q: trace of %d entries, error %v; want no trace and %q", c.src, len(trace), err, c.want)
		}
	}
}

// allocated is the heap f allocates, in bytes.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTraceAllocatesOnce: Trace allocates its entries once, at the counted
// length. Beyond the 64-byte entries it may allocate only its two
// emulators — the counting one and the filling one — each what a plain Run
// allocates (its memory pages), plus a fixed 16 KiB. A trace grown by
// append allocates several times the entries.
func TestTraceAllocatesOnce(t *testing.T) {
	w, _ := workload.ByName("compress")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	run := allocated(func() { n, err = emu.New(prog).Run(w.MaxInsts, nil) })
	if err != nil {
		t.Fatal(err)
	}
	var trace []emu.TraceEntry
	got := allocated(func() { trace, err = emu.Trace(prog, w.MaxInsts) })
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(trace)) != n {
		t.Fatalf("trace of %d entries, Run committed %d", len(trace), n)
	}
	if limit := uint64(n)*64 + 2*run + 16<<10; got > limit {
		t.Errorf("Trace of %d entries allocated %d bytes, over %d (entries %d, emulator %d each)", n, got, limit, n*64, run)
	}
}
