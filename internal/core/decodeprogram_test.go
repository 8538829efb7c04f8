package core_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workload"
)

// requireExact fails unless every column of d is allocated at its length,
// so that d.Bytes() is what d holds.
func requireExact(t *testing.T, what string, d *core.Decoded) {
	t.Helper()
	if lens, caps := core.Columns(d); lens != caps {
		t.Errorf("%s: columns (deps, ops, pc, ea) have lengths %v but capacities %v", what, lens, caps)
	}
}

// TestDecodeProgramMatchesTrace: for every workload (every fourth under
// -race), DecodeProgram, TraceProgram and the cached Decoded hold the
// decode of emu.Trace's entries, each column allocated at its length, and
// TraceProgram's trace is emu.Trace's entry for entry.
func TestDecodeProgramMatchesTrace(t *testing.T) {
	for i, w := range workload.All() {
		if raceBuild && i%4 != 0 {
			continue // nothing here is concurrent; -race only slows it
		}
		prog, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		trace, err := emu.Trace(prog, w.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := decode(trace)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := core.DecodeProgram(prog, w.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		full, traced, err := core.TraceProgram(prog, w.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := w.Decoded()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what string
			d    *core.Decoded
		}{{"DecodeProgram", dec}, {"TraceProgram", traced}, {"Decoded", cached}} {
			if !reflect.DeepEqual(c.d, want) {
				t.Fatalf("%s: %s differs from the decode of emu.Trace", w.Name, c.what)
			}
			requireExact(t, w.Name+" "+c.what, c.d)
		}
		if len(full) != len(trace) || cap(full) != len(full) {
			t.Fatalf("%s: TraceProgram trace len %d cap %d, emu.Trace %d", w.Name, len(full), cap(full), len(trace))
		}
		for i := range trace {
			if full[i] != trace[i] {
				t.Fatalf("%s: TraceProgram entry %d is %+v, emu.Trace %+v", w.Name, i, full[i], trace[i])
			}
		}
	}
}

// storeMapSink keeps the reference store map on the heap, where the
// decoder's is.
var storeMapSink map[uint64]int32

// allocated is the heap f allocates, in bytes.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeProgramAllocatesOnce: a workload's decode allocates each column
// once, at its counted length. Beyond the columns (Bytes) it may allocate
// only its two emulators, each what a plain Run allocates, the decoder's
// store map, bounded by twice what inserting the same quadwords into a map
// of the same type allocates (a map's growth varies with its random hash
// seed), and a fixed 64 KiB: the heap rounds each column up to whole 8 KiB
// pages. Columns grown by append allocate several times what they
// keep.
func TestDecodeProgramAllocatesOnce(t *testing.T) {
	for _, w := range workload.All() {
		prog, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		run := allocated(func() { _, err = emu.New(prog).Run(w.MaxInsts, nil) })
		if err != nil {
			t.Fatal(err)
		}
		var stores []uint64
		if _, err := emu.New(prog).Run(w.MaxInsts, func(te emu.TraceEntry) {
			if isa.ClassOf(te.Inst.Op).IsStore {
				stores = append(stores, te.EA)
			}
		}); err != nil {
			t.Fatal(err)
		}
		storeMap := allocated(func() {
			m := make(map[uint64]int32)
			for i, ea := range stores {
				m[ea>>3], m[(ea+7)>>3] = int32(i), int32(i)
			}
			storeMapSink = m
		})
		var dec *core.Decoded
		got := allocated(func() { dec, err = core.DecodeProgram(prog, w.MaxInsts) })
		if err != nil {
			t.Fatal(err)
		}
		if limit := uint64(dec.Bytes()) + 2*run + 2*storeMap + 64<<10; got > limit {
			t.Errorf("%s: decode of %d entries allocated %d bytes, over %d (columns %d, emulator %d each, reference store map %d)",
				w.Name, dec.Len(), got, limit, dec.Bytes(), run, storeMap)
		}
	}
}
