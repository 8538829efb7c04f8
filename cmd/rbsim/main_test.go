package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// TestMain makes the test binary rbsim itself when RBSIM_MAIN is set, so a
// test can run the command's flag handling and exit codes in a child.
func TestMain(m *testing.M) {
	if os.Getenv("RBSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rbsim runs the command with args in a child process and returns its exit
// code and combined output.
func rbsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RBSIM_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// TestNoBypassLevelsOnlyOnIdeal: removed bypass levels apply to the ideal
// machine and are refused (exit 2) on any other, never silently replacing
// the -machine choice.
func TestNoBypassLevelsOnlyOnIdeal(t *testing.T) {
	if code, out := rbsim(t, "-machine", "baseline", "-width", "4", "-no-bypass-levels", "1"); code != 2 ||
		!strings.Contains(out, "only from the ideal machine") {
		t.Errorf("-machine baseline -no-bypass-levels 1: exit %d, output %q; want exit 2 refusing the levels", code, out)
	}
	if code, out := rbsim(t, "-machine", "ideal", "-width", "4", "-no-bypass-levels", "1"); code != 0 ||
		!strings.Contains(out, "machine:       Ideal-4-No-1") {
		t.Errorf("-machine ideal -no-bypass-levels 1: exit %d, output %q", code, out)
	}
}

// TestFromTraceNeedsItsWorkload: -from-trace takes its workload from an
// explicit -workload (the default would label and check the trace as
// compress), refuses a trace that does not start in that workload, and
// checks a matching one cleanly.
func TestFromTraceNeedsItsWorkload(t *testing.T) {
	w, ok := workload.ByName("gap")
	if !ok {
		t.Fatal("workload gap missing")
	}
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gap.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.Write(f, trace); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if code, out := rbsim(t, "-from-trace", path); code != 2 || !strings.Contains(out, "requires -workload") {
		t.Errorf("-from-trace without -workload: exit %d, output %q", code, out)
	}
	if code, out := rbsim(t, "-from-trace", path, "-workload", "compress"); code != 2 ||
		!strings.Contains(out, "does not start in workload compress") {
		t.Errorf("gap trace as compress: exit %d, output %q", code, out)
	}
	code, out := rbsim(t, "-from-trace", path, "-workload", "gap", "-check")
	if code != 0 || !strings.Contains(out, "workload:      gap") || !strings.Contains(out, "datapath:") {
		t.Errorf("-from-trace -workload gap -check: exit %d, output %q", code, out)
	}
}

// serialCkpt is the reference for -save-ckpt: step to n on one goroutine,
// warming every instruction, then capture.
func serialCkpt(t *testing.T, cfg machine.Config, w *workload.Workload, n int64) *ckpt.State {
	t.Helper()
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	hier := mem.MustHierarchy(cfg.Mem)
	pred := branch.New()
	warmer := ckpt.NewWarmer(hier, pred)
	e := emu.New(prog)
	var te emu.TraceEntry
	for e.InstCount() < n {
		if err := e.StepInto(&te); err != nil {
			t.Fatal(err)
		}
		warmer.Observe(&te)
	}
	return ckpt.Capture(w.Name, e, hier, pred)
}

// TestSaveCkptMatchesSerial: the file -save-ckpt writes holds the serial
// capture's exact bytes at the first instruction, on a multiple of the
// fast-forward's commit batch and off one; a -ckpt-at past the program's
// end keeps its error.
func TestSaveCkptMatchesSerial(t *testing.T) {
	cfg := machine.NewRBFull(8)
	w, ok := workload.ByName("gcc00")
	if !ok {
		t.Fatal("workload gcc00 missing")
	}
	path := filepath.Join(t.TempDir(), "gcc00.ckpt")
	for _, n := range []int64{1, 16384, 10000} {
		if err := doSaveCkpt(cfg, w, path, n); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		ref := serialCkpt(t, cfg, w, n)
		if err := ref.Write(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("-ckpt-at %d: file differs from the serial capture (%d vs %d bytes)", n, len(got), want.Len())
		}
		st, err := ckpt.Read(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if st.Hash() != ref.Hash() || st.Seq() != n {
			t.Fatalf("-ckpt-at %d: read back %s at %d, want %s at %d", n, st.Hash(), st.Seq(), ref.Hash(), n)
		}
	}

	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	length, err := emu.New(prog).Run(w.MaxInsts, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = doSaveCkpt(cfg, w, path, length+1)
	want := fmt.Sprintf("workload gcc00 halts after %d instructions, before -ckpt-at %d", length, length+1)
	if err == nil || err.Error() != want {
		t.Fatalf("-ckpt-at past the end: got %v, want %q", err, want)
	}
}

// TestLoadCkptCheckAndWrongPath: a resumed checkpoint runs the commit-time
// check against a reference resumed from the same checkpoint, so the check
// passes and the datapath verifies results; -wrong-path, whose state starts
// from the program image, is refused.
func TestLoadCkptCheckAndWrongPath(t *testing.T) {
	cfg := machine.NewRBFull(8)
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("workload compress missing")
	}
	path := filepath.Join(t.TempDir(), "compress.ckpt")
	if err := doSaveCkpt(cfg, w, path, 5000); err != nil {
		t.Fatal(err)
	}
	r, err := doLoadCkpt(cfg, core.BackendEvent, true, false, path, "", false)
	if err != nil {
		t.Fatalf("-load-ckpt -check: %v", err)
	}
	if r.DatapathChecked == 0 {
		t.Error("-load-ckpt -check verified no results through the RB datapath")
	}
	if _, err := doLoadCkpt(cfg, core.BackendEvent, false, true, path, "", false); !errors.Is(err, errCkptWrongPath) {
		t.Errorf("-load-ckpt -wrong-path: got %v, want %v", err, errCkptWrongPath)
	}
}
