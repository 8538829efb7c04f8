package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestMain closes the shared harness once the tests are done, so the leak
// check counts only what a test left running.
func TestMain(m *testing.M) {
	leakcheck.Main(m, func() {
		if defaultHarness != nil {
			defaultHarness.Close()
		}
	})
}

// The experiment tests assert the *shape* of the paper's results: orderings,
// rough magnitudes, and crossovers. Absolute IPC values differ from the
// paper (synthetic workloads, trace-driven core); the bands here encode what
// must hold for the reproduction to support the paper's conclusions.

func ipcFig(t *testing.T, fn func(context.Context, Runner) (*IPCFigure, error)) *IPCFigure {
	t.Helper()
	f, err := fn(context.Background(), Default())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestIPCFiguresShape(t *testing.T) {
	figs := []struct {
		name string
		fn   func(context.Context, Runner) (*IPCFigure, error)
	}{
		{"Figure9", Figure9}, {"Figure10", Figure10}, {"Figure11", Figure11}, {"Figure12", Figure12},
	}
	for _, fc := range figs {
		f := ipcFig(t, fc.fn)
		hm := f.HMean
		// Paper ordering on the means: Ideal >= RB-full >= RB-limited and
		// RB-full clearly above Baseline.
		if !(hm["Ideal"] >= hm["RB-full"]*0.999) {
			t.Errorf("%s: Ideal (%.3f) below RB-full (%.3f)", fc.name, hm["Ideal"], hm["RB-full"])
		}
		if !(hm["RB-full"] >= hm["RB-limited"]*0.999) {
			t.Errorf("%s: RB-full (%.3f) below RB-limited (%.3f)", fc.name, hm["RB-full"], hm["RB-limited"])
		}
		gain := hm["RB-full"]/hm["Baseline"] - 1
		if gain < 0.02 || gain > 0.20 {
			t.Errorf("%s: RB-full vs Baseline %+.1f%%, want a single-digit-to-low-teens gain", fc.name, 100*gain)
		}
		// RB-full within a few percent of Ideal (paper: 0.5%-2%).
		if hm["RB-full"] < 0.95*hm["Ideal"] {
			t.Errorf("%s: RB-full (%.3f) more than 5%% below Ideal (%.3f)", fc.name, hm["RB-full"], hm["Ideal"])
		}
		// RB-limited within a few percent of RB-full (paper: 2%-2.3%).
		if hm["RB-limited"] < 0.95*hm["RB-full"] {
			t.Errorf("%s: RB-limited (%.3f) more than 5%% below RB-full (%.3f)", fc.name, hm["RB-limited"], hm["RB-full"])
		}
		// Per-benchmark sanity: IPC positive and below the machine width.
		for m, per := range f.IPC {
			for wl, v := range per {
				if v <= 0 || v > float64(f.Width) {
					t.Errorf("%s: %s/%s IPC %.3f out of range", fc.name, m, wl, v)
				}
			}
		}
		if len(f.Workloads) != map[string]int{"SPECint95": 8, "SPECint2000": 12}[f.Suite] {
			t.Errorf("%s: %d workloads for %s", fc.name, len(f.Workloads), f.Suite)
		}
	}
}

func TestSummaryMatchesPaperBands(t *testing.T) {
	s, err := ComputeSummary(context.Background(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 12 {
		t.Fatalf("summary has %d rows", len(s.Rows))
	}
	for _, r := range s.Rows {
		switch {
		case strings.Contains(r.Claim, "RB-full vs Baseline"):
			if r.Value < 1.02 || r.Value > 1.20 {
				t.Errorf("%s: measured %.3f outside [1.02, 1.20]", r.Claim, r.Value)
			}
		case strings.Contains(r.Claim, "RB-full vs Ideal"):
			if r.Value < 0.95 || r.Value > 1.001 {
				t.Errorf("%s: measured %.3f outside [0.95, 1.001]", r.Claim, r.Value)
			}
		case strings.Contains(r.Claim, "Ideal vs Baseline"):
			if r.Value < 1.03 || r.Value > 1.25 {
				t.Errorf("%s: measured %.3f outside [1.03, 1.25]", r.Claim, r.Value)
			}
		case strings.Contains(r.Claim, "RB-limited vs RB-full"):
			if r.Value < 0.95 || r.Value > 1.001 {
				t.Errorf("%s: measured %.3f outside [0.95, 1.001]", r.Claim, r.Value)
			}
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	d, err := Figure13(context.Background(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != 12 {
		t.Fatalf("%d workloads", len(d.Workloads))
	}
	var convSum float64
	for _, wl := range d.Workloads {
		fb := d.FracBypassed[wl]
		if fb <= 0 || fb > 1 {
			t.Errorf("%s: bypassed fraction %.3f", wl, fb)
		}
		cf := d.CaseFrac[wl]
		var sum float64
		for _, v := range cf {
			if v < 0 || v > 1 {
				t.Errorf("%s: case fraction %.3f", wl, v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: case fractions sum to %.3f", wl, sum)
		}
		if d.FracConversion[wl] != cf[core.RBtoTC] {
			t.Errorf("%s: conversion fraction %.3f != RB->TC share %.3f", wl, d.FracConversion[wl], cf[core.RBtoTC])
		}
		convSum += d.FracConversion[wl]
	}
	// The paper's central observation: few last-arriving sources require
	// format conversion (most come from loads or stay in RB).
	if avg := convSum / float64(len(d.Workloads)); avg > 0.20 {
		t.Errorf("average conversion fraction %.3f; paper observes a small minority", avg)
	}
}

func TestFigure14Shape(t *testing.T) {
	d, err := Figure14(context.Background(), Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{4, 8} {
		hm := d.HMean[width]
		full := hm["Full"]
		if full <= 0 {
			t.Fatalf("width %d: no full-network mean", width)
		}
		// First-level removal hurts most; third-level least (it is nearly
		// unused); removing two levels is worse than removing either alone.
		if !(hm["No-1"] < hm["No-2"] && hm["No-2"] <= hm["No-3"]*1.001) {
			t.Errorf("width %d: level importance ordering violated: %+v", width, hm)
		}
		if !(hm["No-1,2"] <= hm["No-1"]*1.001 && hm["No-2,3"] <= hm["No-2"]*1.001) {
			t.Errorf("width %d: removing two levels not worse: %+v", width, hm)
		}
		for _, c := range d.Configs {
			if hm[c] > full*1.001 {
				t.Errorf("width %d: %s (%.3f) above Full (%.3f)", width, c, hm[c], full)
			}
		}
		// Paper headline: one level (2 or 3) can be removed while staying
		// within 3% to 1% of the full network.
		for _, c := range []string{"No-2", "No-3"} {
			if hm[c] < 0.96*full {
				t.Errorf("width %d: %s (%.3f) more than 4%% below Full (%.3f)", width, c, hm[c], full)
			}
		}
	}
	// Paper: "The 4-wide No-1,2 machine outperformed the 8-wide No-1,2
	// machine."
	if !(d.HMean[4]["No-1,2"] > d.HMean[8]["No-1,2"]) {
		t.Errorf("4-wide No-1,2 (%.3f) did not outperform 8-wide No-1,2 (%.3f)",
			d.HMean[4]["No-1,2"], d.HMean[8]["No-1,2"])
	}
	// §5.2 source locality: most instructions take a source from the
	// first-level bypass; a small group uses other levels.
	for _, width := range []int{4, 8} {
		if d.SrcLevel1[width] < 0.40 {
			t.Errorf("width %d: first-level source fraction %.2f too low", width, d.SrcLevel1[width])
		}
		if d.SrcOther[width] <= 0 || d.SrcOther[width] > 0.30 {
			t.Errorf("width %d: other-level source fraction %.2f out of band", width, d.SrcOther[width])
		}
		total := d.SrcLevel1[width] + d.SrcOther[width] + d.SrcNone[width]
		if total < 0.999 || total > 1.001 {
			t.Errorf("width %d: locality fractions sum to %.3f", width, total)
		}
	}
}

func TestTable1Measurement(t *testing.T) {
	d, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, f := range d.RowFrac {
		if f < 0 || f > 1 {
			t.Errorf("row fraction %.3f out of range", f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("row fractions sum to %.3f", sum)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var b strings.Builder
	f, err := Figure9(context.Background(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Render(&b); err != nil || b.Len() == 0 {
		t.Errorf("figure render: %v, %d bytes", err, b.Len())
	}
	b.Reset()
	if err := RenderTable2(&b); err != nil || !strings.Contains(b.String(), "128 reservation station") {
		t.Errorf("table 2 render: %v / %q", err, b.String())
	}
	b.Reset()
	if err := RenderTable3(&b); err != nil || !strings.Contains(b.String(), "1 (3)") {
		t.Errorf("table 3 render missing RB latency cell: %v", err)
	}
	b.Reset()
	s, err := ComputeSummary(context.Background(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Render(&b); err != nil || !strings.Contains(b.String(), "RB-full vs Baseline") {
		t.Errorf("summary render: %v", err)
	}
}

func TestResultCacheIsStable(t *testing.T) {
	w, _ := workload.ByName("compress")
	cfg := machine.NewIdeal(8)
	ctx := context.Background()
	a, err := Default().RunCell(ctx, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Default().RunCell(ctx, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("RunCell did not return the cached result")
	}
}

func TestFigure1Throughput(t *testing.T) {
	d, err := Figure1(context.Background(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if d.ClockRatio <= 1.2 {
		t.Fatalf("clock ratio %.2f implausibly small (CLA %d vs RB %d)", d.ClockRatio, d.DepthCLA, d.DepthRB)
	}
	a, b, bs, c := d.Order[0], d.Order[1], d.Order[2], d.Order[3]
	// Per-cycle work: A (1-cycle adds) has the best IPC; C and the staggered
	// machine beat plain pipelining.
	if !(d.IPC[a] >= d.IPC[c] && d.IPC[c] > d.IPC[b] && d.IPC[bs] > d.IPC[b]) {
		t.Errorf("IPC ordering violated: %+v", d.IPC)
	}
	// Frequency-adjusted: both fast-clock cores beat the slow core; the RB
	// core beats plain pipelining; and staggering lands between the slow
	// core and the fast-clock cores (§2: its 32-bit slice cannot reach the
	// RB clock).
	if !(d.Throughput[c] > d.Throughput[b] && d.Throughput[b] > d.Throughput[a]) {
		t.Errorf("throughput ordering violated: %+v", d.Throughput)
	}
	if !(d.Throughput[bs] > d.Throughput[a] && d.Throughput[bs] < d.Throughput[c]) {
		t.Errorf("staggered throughput out of place: %+v", d.Throughput)
	}
	if d.StaggerRatio >= d.ClockRatio {
		t.Errorf("staggered clock %.2f not below the RB clock %.2f", d.StaggerRatio, d.ClockRatio)
	}
}

func TestSweeps(t *testing.T) {
	d, err := Sweeps(context.Background(), Default())
	if err != nil {
		t.Fatal(err)
	}
	// The RB advantage must be positive at every window size and width.
	for _, win := range d.Windows {
		if d.WindowGain[win] <= 1.0 {
			t.Errorf("window %d: RB-full gain %.3f not positive", win, d.WindowGain[win])
		}
	}
	for _, width := range d.Widths {
		if d.WidthGain[width] <= 1.0 {
			t.Errorf("width %d: RB-full gain %.3f not positive", width, d.WidthGain[width])
		}
	}
	// Bigger windows expose more ILP: IPC must be nondecreasing in window
	// size for both machines.
	for i := 1; i < len(d.Windows); i++ {
		a, b := d.Windows[i-1], d.Windows[i]
		if d.WindowIPC[b]["RB-full"] < d.WindowIPC[a]["RB-full"]*0.995 {
			t.Errorf("RB-full IPC fell from window %d (%.3f) to %d (%.3f)",
				a, d.WindowIPC[a]["RB-full"], b, d.WindowIPC[b]["RB-full"])
		}
	}
	// Wider machines retire at least as much per cycle.
	for i := 1; i < len(d.Widths); i++ {
		a, b := d.Widths[i-1], d.Widths[i]
		if d.WidthIPC[b]["Baseline"] < d.WidthIPC[a]["Baseline"]*0.95 {
			t.Errorf("Baseline IPC fell sharply from width %d to %d", a, b)
		}
	}
}

// TestArtifactTable pins the artifact table: its names, their paper order
// (rbexp -exp all prints them in this order), and their uniqueness.
func TestArtifactTable(t *testing.T) {
	want := []string{"fig1", "table1", "table2", "table3", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "sweeps", "summary"}
	got := ArtifactNames()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("artifact table = %v, want %v", got, want)
	}
	seen := map[string]bool{}
	for _, a := range Artifacts {
		if seen[a.Name] {
			t.Errorf("artifact %q listed twice", a.Name)
		}
		seen[a.Name] = true
		if b, ok := ArtifactByName(a.Name); !ok || b.Name != a.Name {
			t.Errorf("ArtifactByName(%q) = %q, %v", a.Name, b.Name, ok)
		}
	}
	if _, ok := ArtifactByName("ipc"); ok {
		t.Error("ipc is the server's parameterized comparison, not a paper artifact")
	}
}
