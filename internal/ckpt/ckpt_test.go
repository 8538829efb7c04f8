package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/leakcheck"
	"repro/internal/mem"
	"repro/internal/workload"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// testProgram assembles a small loop with loads, stores, and data-dependent
// branches so checkpoints carry non-trivial memory and predictor state.
func testProgram(t testing.TB, iters int) *isa.Program {
	t.Helper()
	src := fmt.Sprintf(`
        li   r1, 0
        li   r8, 0x2000
        li   r29, %d
loop:
        ldq  r2, 0(r8)
        addq r2, r1, r2
        stq  r2, 0(r8)
        and  r2, #7, r3
        beq  r3, skip
        addq r1, #1, r1
skip:
        addq r8, #8, r8
        and  r8, #0x2fff, r8
        subq r29, #1, r29
        bgt  r29, loop
        halt
        .data 0x2000
        .quad 11, 22, 33, 44, 55, 66, 77, 88
`, iters)
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runSplit runs prog uninterrupted collecting the full trace, then re-runs
// it with a checkpoint at instruction `cut` (optionally through an
// encode/decode round-trip) and checks the resumed tail is bit-identical.
func runSplit(t testing.TB, prog *isa.Program, cut int64, viaDisk bool) {
	t.Helper()
	full, err := emu.Trace(prog, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cut >= int64(len(full)) {
		cut = int64(len(full)) - 1
	}
	if cut < 0 {
		cut = 0
	}

	e := emu.New(prog)
	hier := mem.MustHierarchy(mem.DefaultConfig())
	pred := branch.New()
	warmer := NewWarmer(hier, pred)
	for e.InstCount() < cut {
		te, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		warmer.Observe(&te)
	}
	st := Capture("test", e, hier, pred)

	if viaDisk {
		var buf bytes.Buffer
		if err := st.Write(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// The decoded checkpoint must re-encode to the identical bytes.
		var buf2 bytes.Buffer
		if err := decoded.Write(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("re-encoded checkpoint differs (%d vs %d bytes)", buf.Len(), buf2.Len())
		}
		if decoded.Hash() != st.Hash() {
			t.Fatal("hash changed across encode/decode")
		}
		st = decoded
	}

	// Resume and compare the tail against the uninterrupted run.
	r := emu.Resume(prog, st.Arch)
	for i := cut; i < int64(len(full)); i++ {
		te, err := r.Step()
		if err != nil {
			t.Fatalf("resumed step %d: %v", i, err)
		}
		if te != full[i] {
			t.Fatalf("resumed trace diverges at %d:\n got %+v\nwant %+v", i, te, full[i])
		}
	}
	if !r.Halted() {
		t.Fatal("resumed run did not halt where the full run did")
	}

	// The live emulator kept going; checkpointing must not have perturbed it.
	for i := cut; i < int64(len(full)); i++ {
		te, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if te != full[i] {
			t.Fatalf("original emulator diverges at %d after snapshot (copy-on-write leak)", i)
		}
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	prog := testProgram(t, 400)
	for _, cut := range []int64{0, 1, 17, 500, 1000, 3999} {
		runSplit(t, prog, cut, false)
		runSplit(t, prog, cut, true)
	}
}

func TestCheckpointStateRoundtrip(t *testing.T) {
	prog := testProgram(t, 300)
	e := emu.New(prog)
	hier := mem.MustHierarchy(mem.DefaultConfig())
	pred := branch.New()
	warmer := NewWarmer(hier, pred)
	for e.InstCount() < 1500 {
		te, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		warmer.Observe(&te)
	}
	st := Capture("test", e, hier, pred)
	var buf bytes.Buffer
	if err := st.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "test" || got.Seq() != st.Seq() {
		t.Fatalf("identity lost: %q seq %d", got.Workload, got.Seq())
	}
	if !reflect.DeepEqual(got.Hier, st.Hier) {
		t.Fatal("hierarchy state not preserved")
	}
	if !reflect.DeepEqual(got.Pred, st.Pred) {
		t.Fatal("predictor state not preserved")
	}
	if got.Arch.Regs != st.Arch.Regs || got.Arch.PC != st.Arch.PC {
		t.Fatal("architectural state not preserved")
	}

	// Installing the decoded warm state reproduces the live structures.
	h2 := mem.MustHierarchy(mem.DefaultConfig())
	h2.SetState(got.Hier)
	if !reflect.DeepEqual(h2.State(), st.Hier) {
		t.Fatal("SetState/State round-trip lost hierarchy state")
	}
	p2 := branch.New()
	p2.SetState(got.Pred)
	if !reflect.DeepEqual(p2.State(), st.Pred) {
		t.Fatal("SetState/State round-trip lost predictor state")
	}
}

func TestCheckpointHashDistinguishes(t *testing.T) {
	prog := testProgram(t, 200)
	e := emu.New(prog)
	var hashes []string
	for _, cut := range []int64{100, 200, 300} {
		for e.InstCount() < cut {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		hashes = append(hashes, Capture("test", e, nil, nil).Hash())
	}
	if hashes[0] == hashes[1] || hashes[1] == hashes[2] {
		t.Fatalf("distinct states hashed equal: %v", hashes)
	}
}

func TestReadErrors(t *testing.T) {
	prog := testProgram(t, 50)
	e := emu.New(prog)
	for i := 0; i < 100; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var good bytes.Buffer
	if err := Capture("test", e, nil, nil).Write(&good); err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good.Bytes()...)
		b[0] = 'X'
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good.Bytes()...)
		b[4] = 99
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 8, 20, good.Len() / 2, good.Len() - 1} {
			if _, err := Read(bytes.NewReader(good.Bytes()[:n])); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: got %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("huge count", func(t *testing.T) {
		b := append([]byte(nil), good.Bytes()...)
		// Workload-name length field follows magic+version.
		b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0x7f
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestWarmAllocatesNothing: functional warming runs once per fast-forwarded
// instruction, so once the caches and predictor tables have seen a commit
// stream, warming it again must not allocate.
func TestWarmAllocatesNothing(t *testing.T) {
	w, _ := workload.ByName("gcc00")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := emu.Trace(prog, w.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	commits := make([]Commit, len(trace))
	for i := range trace {
		commits[i] = commitOf(&trace[i])
	}
	warmer := NewWarmer(mem.MustHierarchy(mem.DefaultConfig()), branch.New())
	warm := func() {
		for _, c := range commits {
			warmer.Warm(c)
		}
	}
	warm()
	// AllocsPerRun counts the whole process's allocations. Over 100 passes
	// the few a runtime goroutine makes (the unique package's cleanup after
	// a GC cycle; this binary links it through leakcheck's net/http) average
	// below one per pass, while a Warm that allocates does so once per
	// commit.
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("Warm over %d commits: %v allocs per pass, want 0", len(commits), n)
	}
}
