package experiments

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/branch"
	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

// serialLibrary is the checkpoint-library pass on one goroutine, the
// reference buildLibrary must match. Its bound is emu.Run's: a program may
// commit MaxInsts instructions.
func serialLibrary(cfg machine.Config, w *workload.Workload, ffWarm int64) (*ckptLibrary, error) {
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	pred := branch.New()
	warmer := ckpt.NewWarmer(hier, pred)
	e := emu.New(prog)
	lib := &ckptLibrary{stride: libStride(w.MaxInsts)}
	var te emu.TraceEntry
	for !e.Halted() {
		i := e.InstCount()
		if i >= w.MaxInsts {
			return nil, fmt.Errorf("fast-forward of %s exceeded %d instructions without halting", w.Name, w.MaxInsts)
		}
		if i%lib.stride == 0 {
			st := ckpt.Capture(w.Name, e, hier, pred)
			lib.states = append(lib.states, st)
			lib.prints = append(lib.prints, st.Fingerprint())
		}
		if err := e.StepInto(&te); err != nil {
			return nil, fmt.Errorf("fast-forward of %s at inst %d: %w", w.Name, i, err)
		}
		if ffWarm == 0 || i%lib.stride >= lib.stride-ffWarm {
			warmer.Observe(&te)
		}
	}
	lib.total = e.InstCount()
	return lib, nil
}

// libraryWorkload is a small generated program, about 81k instructions,
// under its own name so the workload caches keep it apart.
func libraryWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.GenParams{Name: name, Iterations: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// withBound returns a copy of w under a new name whose bound is max.
func withBound(w *workload.Workload, name string, max int64) *workload.Workload {
	c := *w
	c.Name, c.MaxInsts = name, max
	return &c
}

// TestLibraryMatchesSerial: the pipelined library is the serial pass's
// library — the same length, every fingerprint, and every checkpoint's full
// Hash (warm hierarchy and predictor included) — on a generated program,
// gcc00 and mcf, warming continuously and over a 4096-instruction horizon.
func TestLibraryMatchesSerial(t *testing.T) {
	cfg := machine.NewRBFull(8)
	wls := []*workload.Workload{libraryWorkload(t, "library-test-gen")}
	for _, name := range []string{"gcc00", "mcf"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		wls = append(wls, w)
	}
	for _, w := range wls {
		for _, ffWarm := range []int64{0, 4096} {
			want, err := serialLibrary(cfg, w, ffWarm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := buildLibrary(cfg, w, ffWarm)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s ff-warm=%d", w.Name, ffWarm)
			if got.total != want.total || got.stride != want.stride || len(got.states) != len(want.states) {
				t.Fatalf("%s: %d insts, stride %d, %d checkpoints; want %d, %d, %d", what,
					got.total, got.stride, len(got.states), want.total, want.stride, len(want.states))
			}
			if len(want.states) < 2 {
				t.Fatalf("%s: only %d checkpoints; the comparison needs several", what, len(want.states))
			}
			for i := range want.states {
				if got.prints[i] != want.prints[i] {
					t.Fatalf("%s: checkpoint %d fingerprint %s, want %s", what, i, got.prints[i], want.prints[i])
				}
				if got.states[i].Hash() != want.states[i].Hash() {
					t.Fatalf("%s: checkpoint %d (inst %d) hashes differently from the serial pass", what, i, got.states[i].Seq())
				}
			}
		}
	}
}

// TestLibraryInstructionBound: the sampler and the full-detail path bound a
// workload alike. A program of exactly MaxInsts instructions runs on both;
// one of MaxInsts+1 fails on both.
func TestLibraryInstructionBound(t *testing.T) {
	base := libraryWorkload(t, "library-bound-base")
	prog, err := base.Program()
	if err != nil {
		t.Fatal(err)
	}
	length, err := emu.New(prog).Run(base.MaxInsts, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(1)
	defer h.Close()
	spec := SampleSpec{Samples: 2, Warmup: 500, Measure: 500}
	for _, c := range []struct {
		name  string
		max   int64
		fails bool
	}{
		{"library-bound-exact", length, false},
		{"library-bound-short", length - 1, true},
	} {
		w := withBound(base, c.name, c.max)
		_, decErr := w.Decoded()
		res, sampErr := h.RunSampled(context.Background(), machine.NewRBFull(8), w, spec)
		if (decErr != nil) != c.fails || (sampErr != nil) != c.fails {
			t.Fatalf("%s (length %d, MaxInsts %d): Decoded error %v, RunSampled error %v; want both to fail: %v",
				c.name, length, c.max, decErr, sampErr, c.fails)
		}
		if sampErr == nil && res.TotalInstructions != length {
			t.Fatalf("%s: sampled over %d instructions, want %d", c.name, res.TotalInstructions, length)
		}
	}
}

// TestLibraryFailuresMatchSerial: a fault in the middle of the pass and a
// program that outruns its bound fail buildLibrary with the serial pass's
// error text, instruction index included.
func TestLibraryFailuresMatchSerial(t *testing.T) {
	cfg := machine.NewRBFull(8)
	base := libraryWorkload(t, "library-fail-base")
	prog, err := base.Program()
	if err != nil {
		t.Fatal(err)
	}
	length, err := emu.New(prog).Run(base.MaxInsts, nil)
	if err != nil {
		t.Fatal(err)
	}
	fault := &workload.Workload{Name: "library-fail-fault", MaxInsts: 1 << 20, Source: `
        li   r8, 0x2000
        li   r5, -1
        li   r29, 30000
loop:   ldq  r2, 0(r8)
        addq r2, r29, r2
        stq  r2, 0(r8)
        addq r8, #8, r8
        and  r8, #0x2fff, r8
        subq r29, #1, r29
        bgt  r29, loop
        jmp  r31, (r5)
        halt
`}
	for _, w := range []*workload.Workload{fault, withBound(base, "library-fail-bound", length-1)} {
		_, want := serialLibrary(cfg, w, 0)
		_, got := buildLibrary(cfg, w, 0)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s: got error %v, want %v", w.Name, got, want)
		}
	}
}
