package check

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestDeterministicReplay proves a (machine, workload) cell is a pure
// function: running the same configuration over the same trace twice must
// produce byte-identical results — every counter, not just IPC. The result
// cache, the experiment figures, and the whole differential suite rest on
// this.
func TestDeterministicReplay(t *testing.T) {
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range machine.All(8) {
		a, err := core.Run(cfg, w.Name, trace, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Run(cfg, w.Name, trace, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		aj, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj, bj) {
			t.Errorf("%s: two runs of the same cell differ:\n%s\n%s", cfg.Name, aj, bj)
		}
	}
}
