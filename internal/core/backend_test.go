package core

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// benchProgram is a mixed arithmetic/memory/branch loop for whole-run
// backend benchmarks.
func benchProgram() (*isa.Program, error) {
	return asm.Assemble(`
        li r10, 0x2000
        li r2, 1
        li r29, 5000
loop:   ldq  r3, 0(r10)
        addq r3, r2, r3
        s4addq r2, r3, r4
        stq  r4, 0(r10)
        and  r4, #15, r5
        addq r5, r2, r2
        subq r29, #1, r29
        bgt  r29, loop
        halt
`)
}

// mixedProgram exercises every dependence kind the scheduler handles:
// register chains, TC/RB class mixes, loads/stores with aliasing, and
// branches (some unpredictable, so misprediction squash paths run too).
func mixedProgram(t *testing.T) []emu.TraceEntry {
	t.Helper()
	p := loopProgram(t, "li r10, 0x2000\nli r2, 1\nli r9, 88172645", 800, `
        ldq  r3, 0(r10)
        addq r3, r2, r3
        s4addq r2, r3, r4
        stq  r4, 0(r10)
        ldq  r5, 0(r10)
        and  r5, #15, r5
        sll  r9, #13, r6
        xor  r9, r6, r9
        srl  r9, #33, r6
        blbs r6, skip
        mulq r3, r2, r7
skip:   addq r5, r2, r2
`)
	return mustTrace(t, p)
}

// TestBackendsBitIdentical is the in-package face of the equivalence claim
// (the full-matrix gate lives in internal/check): the event-driven and poll
// backends must produce bit-identical results and per-instruction stage
// timelines on a dependence-rich workload across every machine kind, both
// widths, and the steering/scheduler options.
func TestBackendsBitIdentical(t *testing.T) {
	trace := mixedProgram(t)
	var cfgs []machine.Config
	for _, w := range []int{4, 8} {
		cfgs = append(cfgs, machine.All(w)...)
	}
	variant := machine.NewRBFull(8)
	variant.ClassSchedulers = true
	variant.Name += "-classsched"
	cfgs = append(cfgs, variant)
	steer := machine.NewRBLimited(8)
	steer.DependenceSteering = true
	steer.Name += "-depsteer"
	cfgs = append(cfgs, steer)

	for _, cfg := range cfgs {
		stEvent, stPoll := make([]StageRecord, len(trace)), make([]StageRecord, len(trace))
		rEvent, err := Run(cfg, "eq", decodeTrace(t, trace), Options{Stages: stEvent})
		if err != nil {
			t.Fatalf("%s event: %v", cfg.Name, err)
		}
		rPoll, err := Run(cfg, "eq", decodeTrace(t, trace), Options{Backend: BackendPoll, Stages: stPoll})
		if err != nil {
			t.Fatalf("%s poll: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(rEvent, rPoll) {
			t.Errorf("%s: results diverge\nevent: %+v\npoll:  %+v", cfg.Name, rEvent, rPoll)
		}
		for i := range stEvent {
			if stEvent[i] != stPoll[i] {
				t.Errorf("%s: stage timeline diverges at instruction %d: event %+v, poll %+v",
					cfg.Name, i, stEvent[i], stPoll[i])
				break
			}
		}
	}
}

// TestBackendsBitIdenticalWrongPath covers the squash interaction: a heavily
// mispredicting program with wrong-path modeling enabled, where mid-issue
// squashes were the old compaction bug-surface.
func TestBackendsBitIdenticalWrongPath(t *testing.T) {
	p := unpredictableProgram(t)
	trace := mustTrace(t, p)
	for _, w := range []int{4, 8} {
		cfg := machine.NewRBFull(w)
		cfg.Name += "-wp"
		rEvent, err := Run(cfg, "eq", decodeTrace(t, trace), Options{WrongPath: emu.New(p)})
		if err != nil {
			t.Fatalf("%s event: %v", cfg.Name, err)
		}
		rPoll, err := Run(cfg, "eq", decodeTrace(t, trace), Options{Backend: BackendPoll, WrongPath: emu.New(p)})
		if err != nil {
			t.Fatalf("%s poll: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(rEvent, rPoll) {
			t.Errorf("%s: wrong-path results diverge\nevent: %+v\npoll:  %+v", cfg.Name, rEvent, rPoll)
		}
	}
}

// TestParseBackend covers the flag plumbing.
func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"event", BackendEvent}, {"poll", BackendPoll}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("Backend.String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseBackend("bogus"); err == nil {
		t.Error("ParseBackend accepted bogus value")
	}
}

// TestSteadyStateIssueLoopZeroAllocs is the regression test for the slab
// rewrite: the per-cycle work (fetch, dispatch, wakeup, select, execute,
// retire) must allocate nothing, on either backend (issueEvent and
// issuePoll). Setup allocations (the slab, the dependence tables, the
// calendar's first touch of each bucket) are constant per run, so a run over
// a 4x-longer trace — tens of thousands more simulated cycles — must not
// allocate more than a small constant beyond the short run.
func TestSteadyStateIssueLoopZeroAllocs(t *testing.T) {
	build := func(iters int) []emu.TraceEntry {
		p := loopProgram(t, "li r10, 0x2000\nli r2, 1", iters, `
        ldq  r3, 0(r10)
        addq r3, r2, r3
        stq  r3, 0(r10)
        and  r3, #255, r4
        addq r4, r2, r2
`)
		return mustTrace(t, p)
	}
	shortTrace, longTrace := build(500), build(2000)
	cfg := machine.NewRBFull(8)
	for _, backend := range []Backend{BackendEvent, BackendPoll} {
		t.Run(backend.String(), func(t *testing.T) {
			run := func(trace []emu.TraceEntry) func() {
				return func() {
					if _, err := Run(cfg, "alloc", decodeTrace(t, trace), Options{Backend: backend}); err != nil {
						t.Fatal(err)
					}
				}
			}
			short := testing.AllocsPerRun(5, run(shortTrace))
			long := testing.AllocsPerRun(5, run(longTrace))
			// The long trace itself is 4x larger, so per-run allocations that
			// scale with trace length (done/prod/dispCluster tables...) triple
			// the delta; what must NOT appear is anything scaling with the
			// ~15k extra simulated cycles. Allow the table growth plus slack.
			perEntry := (long - short) / float64(len(longTrace)-len(shortTrace))
			if perEntry > 0.01 {
				t.Errorf("issue loop allocates in steady state: %.0f allocs short, %.0f long (%.4f per extra trace entry)",
					short, long, perEntry)
			}
		})
	}
}

// BenchmarkReadyPoll measures one poll-backend wakeup check (the per-entry
// per-cycle cost the event backend eliminates).
func BenchmarkReadyPoll(b *testing.B) {
	cfg := machine.NewRBLimited(8)
	s, err := New(cfg, "bench", decodeTrace(b, make([]emu.TraceEntry, 4)), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := range s.prod {
		s.prod[i] = prodRecord{t: int64(i), cluster: int8(i % 2)} // latency class 0
	}
	u := &uop{op: 2 << opNsrcShift, dep: [4]int32{0 << 1, 2<<1 | 1, -1, -1}, minExe: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ready(u, int64(i%16))
	}
}

// BenchmarkEarliestReady measures the closed-form wakeup computation that
// replaces per-cycle polling in the event backend.
func BenchmarkEarliestReady(b *testing.B) {
	cfg := machine.NewRBLimited(8)
	s, err := New(cfg, "bench", decodeTrace(b, make([]emu.TraceEntry, 4)), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := range s.prod {
		s.prod[i] = prodRecord{t: int64(i), cluster: int8(i % 2)} // latency class 0
	}
	u := &uop{op: 2 << opNsrcShift, dep: [4]int32{0 << 1, 2<<1 | 1, -1, -1}, minExe: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.earliestReadyFrom(u, int64(i%8))
	}
}

// BenchmarkSimulateEvent / BenchmarkSimulatePoll compare whole-run backend
// throughput on the same trace.
func benchmarkSimulate(b *testing.B, backend Backend) {
	p, err := benchProgram()
	if err != nil {
		b.Fatal(err)
	}
	trace, err := emu.Trace(p, 200_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.NewRBFull(8)
	dec := decodeTrace(b, trace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, "bench", dec, Options{Backend: backend}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateEvent(b *testing.B) { benchmarkSimulate(b, BackendEvent) }
func BenchmarkSimulatePoll(b *testing.B)  { benchmarkSimulate(b, BackendPoll) }
