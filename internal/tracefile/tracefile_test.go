package tracefile

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Use a real workload trace for round-trip coverage: it contains every
// instruction form the format must carry.
func TestRoundTrip(t *testing.T) {
	w, _ := workload.ByName("m88ksim")
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(trace) {
		t.Fatalf("length %d, want %d", len(back), len(trace))
	}
	for i := range trace {
		if back[i] != trace[i] {
			t.Fatalf("entry %d differs:\n got %+v\nwant %+v", i, back[i], trace[i])
		}
	}
}

// A replayed trace must time identically to the original.
func TestReplayedTraceSimulatesIdentically(t *testing.T) {
	w, _ := workload.ByName("parser")
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewRBFull(8)
	a, err := core.Run(cfg, "orig", trace, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(cfg, "replay", back, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IPC() != b.IPC() {
		t.Errorf("replayed trace timed differently: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Errorf("got %d entries", len(back))
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	w, _ := workload.ByName("gap")
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, trace[:100]); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncation.
	if _, err := Read(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated file accepted")
	}
	// Trailing garbage.
	if _, err := Read(bytes.NewReader(append(append([]byte(nil), good...), 0x7))); err == nil {
		t.Error("trailing garbage accepted")
	}
	// Empty input.
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}
