package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); got != 1 {
		t.Errorf("HM(1,1,1) = %f", got)
	}
	if got := HarmonicMean([]float64{2, 2}); got != 2 {
		t.Errorf("HM(2,2) = %f", got)
	}
	// HM(1,3) = 2/(1 + 1/3) = 1.5
	if got := HarmonicMean([]float64{1, 3}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("HM(1,3) = %f, want 1.5", got)
	}
	if HarmonicMean(nil) != 0 || HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("degenerate harmonic means not 0")
	}
}

func TestMeansGuardPathologicalInputs(t *testing.T) {
	// The means summarize IPC values; a NaN or Inf leaking in from a broken
	// simulation must collapse the aggregate to the sentinel 0, never
	// propagate into rendered tables.
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		got  float64
	}{
		{"HM empty", HarmonicMean([]float64{})},
		{"HM NaN", HarmonicMean([]float64{1, nan})},
		{"HM +Inf", HarmonicMean([]float64{1, inf})},
		{"HM -Inf", HarmonicMean([]float64{1, -inf})},
		{"HM negative", HarmonicMean([]float64{1, -2})},
		{"AM NaN", ArithmeticMean([]float64{1, nan})},
		{"AM Inf", ArithmeticMean([]float64{1, inf})},
		{"AM empty", ArithmeticMean(nil)},
		{"GMR NaN a", GeometricMeanRatio([]float64{nan}, []float64{1})},
		{"GMR NaN b", GeometricMeanRatio([]float64{1}, []float64{nan})},
		{"GMR Inf", GeometricMeanRatio([]float64{inf}, []float64{1})},
		{"GMR zero denom", GeometricMeanRatio([]float64{1}, []float64{0})},
		{"GMR empty", GeometricMeanRatio(nil, nil)},
	}
	for _, c := range cases {
		if c.got != 0 {
			t.Errorf("%s = %v, want 0", c.name, c.got)
		}
	}
}

func TestMeansSingleSample(t *testing.T) {
	if got := HarmonicMean([]float64{2.5}); got != 2.5 {
		t.Errorf("HM(2.5) = %v, want 2.5", got)
	}
	if got := ArithmeticMean([]float64{2.5}); got != 2.5 {
		t.Errorf("AM(2.5) = %v, want 2.5", got)
	}
	if got := GeometricMeanRatio([]float64{5}, []float64{2}); got != 2.5 {
		t.Errorf("GMR(5/2) = %v, want 2.5", got)
	}
}

func TestHarmonicLessThanArithmetic(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) && x < 1e12 {
				xs = append(xs, x+0.001)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return HarmonicMean(xs) <= ArithmeticMean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricMeanRatio(t *testing.T) {
	a := []float64{2, 2}
	b := []float64{1, 1}
	if got := GeometricMeanRatio(a, b); math.Abs(got-2) > 1e-12 {
		t.Errorf("GMR = %f, want 2", got)
	}
	if got := GeometricMeanRatio([]float64{4, 1}, []float64{1, 4}); math.Abs(got-1) > 1e-12 {
		t.Errorf("GMR = %f, want 1", got)
	}
	if GeometricMeanRatio([]float64{1}, []float64{1, 2}) != 0 {
		t.Error("mismatched lengths accepted")
	}
}

func TestBar(t *testing.T) {
	bar := func(value, max float64, width int) string {
		return string(AppendBar([]byte("|"), value, max, width))[1:]
	}
	if got := bar(1, 2, 10); got != "#####" {
		t.Errorf("half bar: %q", got)
	}
	if got := bar(2, 2, 10); got != "##########" {
		t.Errorf("full bar: %q", got)
	}
	if got := bar(5, 2, 10); got != "##########" {
		t.Errorf("overfull bar clamps: %q", got)
	}
	if bar(0, 2, 10) != "" || bar(1, 0, 10) != "" || bar(math.NaN(), 2, 10) != "" {
		t.Error("degenerate bars not empty")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Headers: []string{"name", "ipc"}}
	tb.AddRow("compress", "1.234")
	tb.AddRow("gcc", "0.9")
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "ipc") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "compress") {
		t.Errorf("row: %q", lines[2])
	}
	// Columns aligned: "ipc" starts at the same offset in all lines.
	off := strings.Index(lines[0], "ipc")
	if lines[2][off:off+5] != "1.234" {
		t.Errorf("misaligned column: %q", lines[2])
	}
}
