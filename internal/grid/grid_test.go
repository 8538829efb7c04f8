package grid

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/bypass"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

func TestCellKey(t *testing.T) {
	req := &CellRequest{Config: machine.NewRBFull(8), Workload: "mcf"}
	key := req.Key()
	for _, part := range []string{"RB-full", "mcf", "8", "full"} {
		if !strings.Contains(key, part) {
			t.Fatalf("key %q missing %q", key, part)
		}
	}
	sampled := &CellRequest{
		Config:   machine.NewRBFull(8),
		Workload: "mcf",
		Sampled:  &experiments.SampleSpec{Samples: 4, Warmup: 100, Measure: 100},
	}
	if sampled.Key() == key {
		t.Fatal("sampled and full cells share a key")
	}
	if !strings.Contains(sampled.Key(), "sampled/4/100/100/0") {
		t.Fatalf("sampled key %q does not encode the spec", sampled.Key())
	}
	// Same parameters, same key: the identity the shared tier relies on.
	if again := (&CellRequest{Config: machine.NewRBFull(8), Workload: "mcf"}).Key(); again != key {
		t.Fatalf("key not deterministic: %q vs %q", again, key)
	}
}

func TestCellValidate(t *testing.T) {
	good := &CellRequest{Config: machine.NewBaseline(4), Workload: "compress"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []*CellRequest{
		{Config: machine.NewBaseline(4), Workload: "no-such-workload"},
		{Config: machine.Config{}, Workload: "compress"},
		{Config: machine.NewBaseline(4), Workload: "compress",
			Sampled: &experiments.SampleSpec{Samples: 1, Measure: 100}},
	}
	for i, c := range cases {
		err := c.Validate()
		if err == nil {
			t.Fatalf("case %d: invalid request accepted", i)
		}
		if !errors.Is(err, ErrBadCell) {
			t.Fatalf("case %d: error %v does not wrap ErrBadCell", i, err)
		}
	}
}

// TestCellRequestRoundTrip proves a cell request survives the wire whole:
// the full machine.Config (including the unexported bypass mask, via its
// custom JSON) round-trips to an identical struct with an identical key.
func TestCellRequestRoundTrip(t *testing.T) {
	cfgs := []machine.Config{
		machine.NewBaseline(4),
		machine.NewRBFull(8),
		machine.NewRBLimited(8),
		machine.NewIdealLimited(8, parseMust(t, "1,3")),
	}
	for _, cfg := range cfgs {
		req := &CellRequest{Config: cfg, Workload: "mcf"}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back CellRequest
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if back.Key() != req.Key() {
			t.Fatalf("key changed over the wire: %q vs %q", back.Key(), req.Key())
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: decoded request invalid: %v", cfg.Name, err)
		}
		if back.Config != cfg {
			t.Fatalf("%s: config changed over the wire:\n got %+v\nwant %+v", cfg.Name, back.Config, cfg)
		}
	}
}

func parseMust(t *testing.T, spec string) bypass.Config {
	t.Helper()
	got, err := machine.IdealWithout(8, spec)
	if err != nil {
		t.Fatal(err)
	}
	return got.IdealBypass
}

// TestCellResultRoundTrip proves a computed result is byte-stable over the
// wire: marshal, unmarshal, marshal again, and the bytes match — the
// property that makes a remote cell indistinguishable from a local one.
func TestCellResultRoundTrip(t *testing.T) {
	h := experiments.NewHarness(1)
	defer h.Close()
	w, _ := workload.ByName("compress")
	res, err := h.RunCell(context.Background(), machine.NewRBFull(4), w)
	if err != nil {
		t.Fatal(err)
	}
	out := &CellResult{Key: "k", Result: res}
	b1, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back CellResult
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("result not byte-stable over the wire:\n%s\n%s", b1, b2)
	}
	if back.IPC() != out.IPC() {
		t.Fatalf("IPC changed over the wire: %v vs %v", back.IPC(), out.IPC())
	}
}

func TestBatchSpecCells(t *testing.T) {
	spec := &BatchSpec{
		Machines:  []string{"baseline", "rb-full"},
		Widths:    []int{4, 8},
		Workloads: []string{"compress", "mcf"},
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	keys := make(map[string]bool)
	for i := range cells {
		if err := cells[i].Validate(); err != nil {
			t.Fatalf("cell %d invalid: %v", i, err)
		}
		k := cells[i].Key()
		if keys[k] {
			t.Fatalf("duplicate cell %q", k)
		}
		keys[k] = true
	}
	// Expansion is deterministic.
	again, _ := spec.Cells()
	for i := range cells {
		if again[i].Key() != cells[i].Key() {
			t.Fatalf("expansion order changed: %q vs %q", again[i].Key(), cells[i].Key())
		}
	}
}

// TestBatchSpecWindowsMirrorSweeps pins the -winN naming convention shared
// with the sweeps artifact, so batch cells and figure cells share caches.
func TestBatchSpecWindowsMirrorSweeps(t *testing.T) {
	spec := &BatchSpec{
		Machines:  []string{"rb-full"},
		Widths:    []int{8},
		Windows:   []int{32, 64},
		Workloads: []string{"compress"},
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	if cells[0].Config.Name != "RB-full-8-win32" || cells[1].Config.Name != "RB-full-8-win64" {
		t.Fatalf("window naming diverged from sweeps: %q, %q",
			cells[0].Config.Name, cells[1].Config.Name)
	}
	if cells[0].Config.WindowSize != 32 ||
		cells[0].Config.SchedulerSize*cells[0].Config.NumSchedulers != 32 {
		t.Fatalf("window 32 config inconsistent: %+v", cells[0].Config)
	}
}

func TestBatchSpecErrors(t *testing.T) {
	cases := []*BatchSpec{
		{},
		{Machines: []string{"no-such-machine"}},
		{Machines: []string{"baseline"}, Widths: []int{7}},
		{Machines: []string{"baseline"}, Workloads: []string{"nope"}},
		{Machines: []string{"baseline"}, Suite: "SPECfp"},
		{Machines: []string{"baseline"}, Workloads: []string{"mcf"}, Suite: "all"},
		{NoBypassLevels: []string{"9"}},
		{Machines: []string{"baseline"}, Windows: []int{7}},
		{Machines: []string{"baseline"}, Sampled: &experiments.SampleSpec{Samples: 1, Measure: 1}},
	}
	for i, spec := range cases {
		if _, err := spec.Cells(); err == nil {
			t.Fatalf("case %d: bad spec accepted: %+v", i, spec)
		} else if !errors.Is(err, experiments.ErrBadSpec) {
			t.Fatalf("case %d: error %v does not wrap ErrBadSpec", i, err)
		}
	}
}

func TestBatchSpecSuites(t *testing.T) {
	spec := &BatchSpec{Machines: []string{"baseline"}, Suite: "SPECint95"}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workload.SPECint95()); len(cells) != want {
		t.Fatalf("SPECint95 sweep has %d cells, want %d", len(cells), want)
	}
	all, err := (&BatchSpec{Machines: []string{"baseline"}}).Cells()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workload.All()); len(all) != want {
		t.Fatalf("default sweep has %d cells, want %d (suite all)", len(all), want)
	}
}
