package workload

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rcache"
)

// TestDecodedSharedAcrossGoroutines has eight goroutines fetch one
// workload's timing trace at once — the first fetch builds it and the rest
// join that build — and simulate eight different machines on it
// concurrently. Every goroutine must get the same decode, and every result
// must equal a run on the full trace. Under -race this is the shared
// decode's concurrent-reader gate.
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
			got[i], errs[i] = core.Run(cfgs[i], w.Name, decs[i], core.Options{})
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
		want, err := core.NewBuffers().Run(cfg, w.Name, trace)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: concurrent shared-decode run diverges:\n got %+v\nwant %+v", cfg.Name, got[i], want)
		}
	}
}

// runMatrix simulates every (machine, workload) cell concurrently, each on
// the workload's timing trace from the package cache, and returns the
// results by cell.
func runMatrix(t *testing.T, cfgs []machine.Config, wls []*Workload) map[string]*core.Result {
	t.Helper()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  = map[string]*core.Result{}
		errs []error
	)
	for _, cfg := range cfgs {
		for _, w := range wls {
			wg.Add(1)
			go func(cfg machine.Config, w *Workload) {
				defer wg.Done()
				r, err := func() (*core.Result, error) {
					dec, err := w.Decoded()
					if err != nil {
						return nil, err
					}
					return core.Run(cfg, w.Name, dec, core.Options{})
				}()
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs = append(errs, err)
					return
				}
				out[cfg.Name+"|"+w.Name] = r
			}(cfg, w)
		}
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}
	return out
}

// TestBoundedTraceCacheServesMatrix shrinks the trace cache below the cost
// of one timing trace: nothing can be retained, so every cell's fetch
// rebuilds (or joins the in-flight build of) its workload's decode. A
// concurrent multi-workload matrix must still come out bit-identical to the
// same matrix over an unbounded cache, and the evictions must show in the
// cache's counters.
func TestBoundedTraceCacheServesMatrix(t *testing.T) {
	var wls []*Workload
	for _, name := range []string{"gcc", "gcc00", "eon"} {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		wls = append(wls, w)
	}
	cfgs := machine.All(4)
	saved := traceCache
	defer func() { traceCache = saved }()

	traceCache = rcache.New(1, 0)
	want := runMatrix(t, cfgs, wls)
	dec, err := wls[0].Decoded()
	if err != nil {
		t.Fatal(err)
	}

	small := dec.Bytes() / 2
	traceCache = rcache.New(1, small)
	got := runMatrix(t, cfgs, wls)
	if len(got) != len(cfgs)*len(wls) {
		t.Fatalf("%d cells served, want %d", len(got), len(cfgs)*len(wls))
	}
	for key, r := range want {
		if !reflect.DeepEqual(got[key], r) {
			t.Errorf("%s: bounded-cache run diverges:\n got %+v\nwant %+v", key, got[key], r)
		}
	}
	st := traceCache.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions under a %d-byte budget: %+v", small, st)
	}
	if st.Entries != 0 || st.Cost > st.MaxCost {
		t.Errorf("cache over its budget: %+v", st)
	}
	if st.Misses+st.Joins+st.Hits != int64(len(got)) {
		t.Errorf("counters %+v do not account for %d fetches", st, len(got))
	}
}
