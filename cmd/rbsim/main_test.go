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

// TestOutputWriteFailureExits1: output that cannot be written — stdout on
// /dev/full — fails the command with exit 1, for the report and -list
// alike, instead of exiting 0 having written nothing.
func TestOutputWriteFailureExits1(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	for _, args := range [][]string{{"-workload", "compress"}, {"-list"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "RBSIM_MAIN=1")
		cmd.Stdout = full
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v with stdout on /dev/full: %v, stderr %q; want exit 1", args, err, stderr.String())
		}
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
// passes and the datapath verifies results; -wrong-path fetches down wrong
// paths from a fetch-order emulator resumed from it too, with or without
// the check, which does not change timing.
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
	wp, err := doLoadCkpt(cfg, core.BackendEvent, false, true, path, "", false)
	if err != nil {
		t.Fatalf("-load-ckpt -wrong-path: %v", err)
	}
	if wp.WrongPathIssued == 0 {
		t.Error("-load-ckpt -wrong-path issued no wrong-path work")
	}
	both, err := doLoadCkpt(cfg, core.BackendEvent, true, true, path, "", false)
	if err != nil {
		t.Fatalf("-load-ckpt -wrong-path -check: %v", err)
	}
	if both.DatapathChecked == 0 || both.Cycles != wp.Cycles || both.WrongPathIssued != wp.WrongPathIssued {
		t.Errorf("-load-ckpt -wrong-path -check: %d datapath checks, %d cycles and %d wrong-path issues; unchecked %d cycles and %d issues",
			both.DatapathChecked, both.Cycles, both.WrongPathIssued, wp.Cycles, wp.WrongPathIssued)
	}
}
