package stats

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// fixedEdges are the values the renders' fixed-precision formats must get
// exactly right: binary ties that round half to even (0.0625, 0.125, 2.5,
// 1.375), decimal near-ties on either side of the half (0.0005, 0.9995,
// 1.0005), zeros, subnormals, the largest magnitudes the exact path still
// takes, and the specials that fall back to strconv.
var fixedEdges = []float64{
	0, math.Copysign(0, -1), 0.0005, 0.0015, 0.0025, 0.9995, 1.0005, 2.5, 3.5, 0.5, 1.5,
	0.0625, 0.125, 0.375, 1.375, 0.05, 0.15, 0.25, 0.35, 99.9996, 9.9995, 12.3456, 1234567.891,
	0.00049999999999999999, 0.000500000000000001, -0.0004, -0.0005, -2.5, -0.9995,
	math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023,
	math.MaxFloat64, -math.MaxFloat64, 1 << 52, 1<<53 + 2, 1 << 60, 1 << 63, 1 << 64,
	18446744073709551615.0 / 1e4, 1.8446744073709552e15, 1.8446744073709552e14,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// checkFixed compares AppendFixed and AppendFixedSigned with their strconv
// and fmt oracles, appending after a prefix so a result that ignores dst
// shows.
func checkFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	want := strconv.FormatFloat(v, 'f', prec, 64)
	if got := string(AppendFixed([]byte("x"), v, prec)); got != "x"+want {
		t.Fatalf("AppendFixed(%v [%#016x], %d) = %q, want %q", v, math.Float64bits(v), prec, got[1:], want)
	}
	if prec >= 0 {
		if f := fmt.Sprintf("%.*f", prec, v); f != want {
			t.Fatalf("fmt %%.%df of %v = %q, strconv %q", prec, v, f, want)
		}
		signed := fmt.Sprintf("%+.*f", prec, v)
		if got := string(AppendFixedSigned(nil, v, prec)); got != signed {
			t.Fatalf("AppendFixedSigned(%v, %d) = %q, want %q", v, prec, got, signed)
		}
	}
}

func TestAppendFixedEdges(t *testing.T) {
	for _, v := range fixedEdges {
		for prec := -1; prec <= 21; prec++ {
			checkFixed(t, v, prec)
			checkFixed(t, -v, prec)
		}
	}
}

// TestAppendFixedRandom checks random bit patterns at every precision, and
// values placed on and one ulp either side of a rounding half at the
// precision.
func TestAppendFixedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkFixed(t, math.Float64frombits(rng.Uint64()), i%20)
	}
	for i := 0; i < 20000; i++ {
		prec := i % 5
		half := (float64(rng.Int63n(1<<20)) + 0.5) / float64(pow10[prec])
		for _, v := range []float64{half, math.Nextafter(half, 0), math.Nextafter(half, math.Inf(1))} {
			checkFixed(t, v, prec)
		}
	}
}

// FuzzAppendFixed searches raw float64 bit patterns at the renders'
// precisions 0-4 against strconv.FormatFloat(v, 'f', prec, 64).
func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedEdges {
		for prec := uint8(0); prec <= 4; prec++ {
			f.Add(math.Float64bits(v), prec)
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64, prec uint8) {
		checkFixed(t, math.Float64frombits(bits), int(prec%5))
	})
}

func TestAppendFixedAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 64)
	v := 0.9995
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendFixed(buf[:0], v, 3)
		buf = AppendFixedSigned(buf, -v, 1)
		buf = RightAlign(buf, 0, 20)
	}); n != 0 {
		t.Errorf("AppendFixed into a large enough buffer: %v allocs per run, want 0", n)
	}
}

func TestPaddingMatchesFmt(t *testing.T) {
	for _, s := range []string{"", "a", "abc", "exactly10!", "longer than ten", "§5.2", "—x"} {
		for width := 0; width <= 12; width++ {
			if got, want := string(AppendLeft([]byte("x"), s, width)), "x"+fmt.Sprintf("%-*s", width, s); got != want {
				t.Errorf("AppendLeft(%q, %d) = %q, want %q", s, width, got, want)
			}
			if got, want := string(RightAlign([]byte("x"+s), 1, width)), "x"+fmt.Sprintf("%*s", width, s); got != want {
				t.Errorf("RightAlign(%q, %d) = %q, want %q", s, width, got, want)
			}
		}
	}
}

// fmtTable is the fmt-based table render Table.Append replaced: the
// reference its output must equal.
func fmtTable(t *Table) string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var out strings.Builder
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(&out, strings.TrimRight(b.String(), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return out.String()
}

func TestTableAppendMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	words := []string{"", " ", "a", "ipc", "0.125", "harmonic mean", "trailing ", "§5.2", "RB->TC", "—"}
	for i := 0; i < 2000; i++ {
		tb := &Table{}
		for range 1 + rng.Intn(20) {
			tb.Headers = append(tb.Headers, words[rng.Intn(len(words))])
		}
		for range rng.Intn(5) {
			row := make([]string, rng.Intn(len(tb.Headers)+3))
			for j := range row {
				row[j] = words[rng.Intn(len(words))]
			}
			tb.AddRow(row...)
		}
		want := fmtTable(tb)
		if got := string(tb.Append([]byte("x"))); got != "x"+want {
			t.Fatalf("table %q / %q:\n got %q\nwant %q", tb.Headers, tb.Rows, got[1:], want)
		}
		var b strings.Builder
		if err := tb.Render(&b); err != nil || b.String() != want {
			t.Fatalf("Render = %q, %v; want %q", b.String(), err, want)
		}
	}
}
