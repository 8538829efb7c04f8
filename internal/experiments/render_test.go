package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var updateRender = flag.Bool("update", false, "rewrite testdata/render.golden")

// Edge values for the renders' fixed-precision numbers: exact binary ties
// (0.0625 at %.3f, 2.5 at %.0f, 1.375 at %.2f), decimal near-ties whose
// float64 sits just above or below the half (0.0005, 0.9995), negative zero
// and subnormals, a value that rounds up into a wider column (99.9996), and
// magnitudes of 10 and past 1e6 that widen every column they land in.
var (
	negZero   = math.Copysign(0, -1)
	subnormal = math.SmallestNonzeroFloat64 * 3
)

// renderArtifacts builds one synthetic value of every artifact type from the
// edge values above. Nothing here is simulated: the golden file pins the
// text layer alone.
func renderArtifacts() []Artifact {
	ipc := &IPCFigure{
		ID: "Figure 0", Title: "IPC edge values",
		Workloads: []string{"ties", "tiny", "wide", "averyverylongname"},
		IPC: map[string]map[string]float64{
			"Baseline":   {"ties": 0.0005, "tiny": negZero, "wide": 12.3456, "averyverylongname": 1.0005},
			"RB-limited": {"ties": 2.5, "tiny": subnormal, "wide": 99.9996, "averyverylongname": 0.0625},
			"RB-full":    {"ties": 0.9995, "tiny": 0.00049999999999999999, "wide": 1234567.891, "averyverylongname": 1.5},
			"Ideal":      {"ties": 0.125, "tiny": -0.0004, "wide": 9.9995, "averyverylongname": 3},
		},
		HMean: map[string]float64{"Baseline": 0.0005, "RB-limited": 2.5, "RB-full": 0.9995, "Ideal": 1e6},
	}
	small := &IPCFigure{
		ID: "Figure 00", Title: "IPC ordinary values",
		Workloads: []string{"a", "b"},
		IPC: map[string]map[string]float64{
			"Baseline":   {"a": 1.1, "b": 0.95},
			"RB-limited": {"a": 1.2, "b": 1.0},
			"RB-full":    {"a": 1.3, "b": 1.05},
			"Ideal":      {"a": 1.35, "b": 1.1},
		},
		HMean: map[string]float64{"Baseline": 1.02, "RB-limited": 1.09, "RB-full": 1.16, "Ideal": 1.21},
	}
	f13 := &Figure13Data{
		Workloads:      []string{"ties", "tiny", "nan"},
		FracBypassed:   map[string]float64{"ties": 0.025, "tiny": negZero, "nan": math.NaN()},
		CaseFrac:       map[string][core.NumBypassCases]float64{"ties": {0.0125, 0.00025, 0.0005, 0.9995}, "tiny": {subnormal, -0.0004, 1, 123.4}},
		FracConversion: map[string]float64{"ties": 0.00125, "tiny": 10000, "nan": math.Inf(1)},
	}
	f14 := &Figure14Data{
		Configs: []string{"full", "no-1", "no-2"},
		HMean: map[int]map[string]float64{
			4: {"full": 0.0005, "no-1": 2.5, "no-2": 12345678.9},
			8: {"full": 0.9995, "no-1": negZero, "no-2": math.Inf(-1)},
		},
		SrcLevel1: map[int]float64{4: 0.125, 8: 0.005},
		SrcOther:  map[int]float64{4: 0.135, 8: 0.995},
		SrcNone:   map[int]float64{4: 0.74, 8: negZero},
	}
	f1 := &Figure1Data{
		ClockRatio: 1.375, StaggerRatio: 1.005,
		DepthCLA: 22, DepthRB: 16, DepthStagger: 20,
		IPC:        map[string]float64{},
		Throughput: map[string]float64{},
		Order:      []string{"A", "B", "B'", "C"},
	}
	for i, name := range f1.Order {
		f1.IPC[name] = []float64{0.0005, 2.5, 0.9995, 1234567.891}[i]
		f1.Throughput[name] = []float64{1.0625, negZero, 99.9996, subnormal}[i]
	}
	t1 := &Table1Data{PaperFrac: PaperTable1Fractions}
	for r := range t1.RowFrac {
		t1.RowFrac[r] = []float64{0.0005, 0.025, 0.00125, negZero, 0.9995, 12.345, subnormal, 1}[r]
	}
	sw := &SweepData{
		Windows:    []int{32, 1024},
		WindowGain: map[int]float64{32: 1.0005, 1024: 0.9995},
		WindowIPC: map[int]map[string]float64{
			32:   {"Baseline": 0.0005, "RB-full": 2.5},
			1024: {"Baseline": 1234567.891, "RB-full": negZero},
		},
		Widths:    []int{2, 16, 64},
		WidthGain: map[int]float64{2: 1, 16: math.NaN(), 64: math.Inf(1)},
		WidthIPC: map[int]map[string]float64{
			2:  {"Baseline": 0.9995, "RB-full": 1.0625},
			16: {"Baseline": subnormal, "RB-full": 99.9996},
			64: {"Baseline": 1, "RB-full": 2},
		},
	}
	sum := &Summary{}
	for _, v := range []float64{1.07, 0.989, 1, 1.0005, 0.9995, 0.99949, negZero, 11.5, math.NaN(), math.Inf(1)} {
		sum.Rows = append(sum.Rows, SummaryRow{Claim: "claim", Paper: "+7%", Measured: gainPct(v), Value: v})
	}
	sum.Rows = append(sum.Rows, SummaryRow{Claim: "trailing space ", Paper: "", Measured: gainPct(1.25)})
	spec := SampleSpec{Samples: 10, Warmup: 2000, Measure: 2000}
	sampled := &SampledFigure{Machine: "RB-full-8", Spec: spec}
	adaptive := &AdaptiveFigure{Machine: "RB-full-8", Spec: spec, Target: 0.0005}
	for i, full := range []float64{1.5, 0.00005, 1234567.8912, negZero} {
		res := &SampledResult{
			MeanIPC:              []float64{1.5, 0.00015, 1234567.8913, 0.25}[i],
			CI95:                 []float64{0.00005, 2.5, 0.9999, subnormal}[i],
			MeasuredInstructions: []int64{20000, 0, 123456789012, 7}[i],
			TotalInstructions:    []int64{3400000, 1, 123456789012, 7}[i],
			CellIPCs:             make([]float64, []int{10, 0, 3, 64}[i]),
		}
		sampled.Rows = append(sampled.Rows, SampledFigureRow{Workload: []string{"ties", "tiny", "wide", "averyverylongname"}[i], FullIPC: full, Sampled: res})
		ad := &AdaptiveResult{SampledResult: res, Converged: i%2 == 0}
		for k := 8; k <= len(res.CellIPCs); k *= 2 {
			ad.Rounds = append(ad.Rounds, AdaptiveRound{Samples: k})
		}
		adaptive.Rows = append(adaptive.Rows, AdaptiveFigureRow{Workload: sampled.Rows[i].Workload, FullIPC: full, Adaptive: ad})
	}
	t2, err := textTable("Table 2. Machine configuration", RenderTable2)
	if err != nil {
		panic(err)
	}
	t3, err := textTable("Table 3. Instruction class latencies", RenderTable3)
	if err != nil {
		panic(err)
	}
	return []Artifact{ipc, small, f13, f14, f1, t1, t2, t3, sw, sum, sampled, adaptive}
}

// TestRenderGolden pins every renderer's bytes against testdata/render.golden,
// written from the fmt-based renders the append-based ones replaced. The
// rbexp-vs-served diffs in scripts/ci.sh cannot catch a formatting change:
// both sides come from the same renderer. Run with -update to rewrite the
// golden file after a deliberate layout change.
func TestRenderGolden(t *testing.T) {
	var got []byte
	for _, a := range renderArtifacts() {
		text, err := RenderText(a)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := a.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
		if !bytes.Equal(b.Bytes(), text) {
			t.Errorf("%T: Render and RenderText differ:\n%s\n---\n%s", a, b.Bytes(), text)
		}
		got = append(got, text...)
	}
	path := filepath.Join("testdata", "render.golden")
	if *updateRender {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("render differs from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("render differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
