package workload

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// TestDecodedSharedAcrossGoroutines has eight goroutines fetch one
// workload's decode at once — the first fetch builds it under the entry's
// Once — and simulate eight different machines on it concurrently. Every
// goroutine must get the same decode, and every result must equal a run
// that decodes its own trace. Under -race this is the shared decode's
// concurrent-reader gate.
func TestDecodedSharedAcrossGoroutines(t *testing.T) {
	w, ok := ByName("gcc")
	if !ok {
		t.Fatal("workload gcc missing")
	}
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := append(machine.All(8), machine.All(4)...)[:8]
	var (
		wg   sync.WaitGroup
		decs = make([]*core.Decoded, len(cfgs))
		got  = make([]*core.Result, len(cfgs))
		errs = make([]error, len(cfgs))
	)
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if decs[i], errs[i] = w.Decoded(); errs[i] != nil {
				return
			}
			got[i], errs[i] = core.Run(cfgs[i], w.Name, trace, core.Options{Decoded: decs[i]})
		}(i)
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", cfg.Name, errs[i])
		}
		if decs[i] != decs[0] {
			t.Fatalf("%s: got a second decode of one workload", cfg.Name)
		}
		want, err := core.Run(cfg, w.Name, trace, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: concurrent shared-decode run diverges:\n got %+v\nwant %+v", cfg.Name, got[i], want)
		}
	}
}
