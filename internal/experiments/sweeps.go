package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SweepData holds the sensitivity studies that extend the paper's
// evaluation: how the RB-full advantage over Baseline responds to window
// size and to execution width. The paper fixes the window at 128 and
// evaluates widths 4 and 8; these sweeps show the trend on either side.
type SweepData struct {
	// Windows and WindowGain: window size -> RB-full/Baseline IPC ratio
	// (8-wide, SPECint95 suite).
	Windows    []int
	WindowGain map[int]float64
	WindowIPC  map[int]map[string]float64 // window -> kind -> hmean

	// Widths and WidthGain: execution width -> RB-full/Baseline ratio
	// (128-entry window, SPECint95 suite).
	Widths    []int
	WidthGain map[int]float64
	WidthIPC  map[int]map[string]float64
}

// Sweeps runs both sensitivity studies.
func Sweeps(ctx context.Context, r Runner) (*SweepData, error) {
	d := &SweepData{
		Windows:    []int{32, 64, 128, 256},
		WindowGain: map[int]float64{},
		WindowIPC:  map[int]map[string]float64{},
		Widths:     []int{2, 4, 8, 16},
		WidthGain:  map[int]float64{},
		WidthIPC:   map[int]map[string]float64{},
	}
	wls := workload.SPECint95()

	// Baseline and RB-full at each (width, window) point; width 8 is shared
	// with the window sweep's 128 point.
	var points [][2]int
	for _, win := range d.Windows {
		points = append(points, [2]int{8, win})
	}
	for _, width := range d.Widths {
		if width != 8 {
			points = append(points, [2]int{width, 128})
		}
	}
	var cfgs []machine.Config
	for _, p := range points {
		for _, c := range []machine.Config{machine.NewBaseline(p[0]), machine.NewRBFull(p[0])} {
			c, err := machine.WithWindow(c, p[1])
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, c)
		}
	}
	results, err := r.RunMatrix(ctx, cfgs, wls)
	if err != nil {
		return nil, err
	}
	hmeanOf := func(name string) float64 {
		var ipcs []float64
		for _, w := range wls {
			ipcs = append(ipcs, results[name][w.Name].IPC())
		}
		return stats.HarmonicMean(ipcs)
	}
	for _, win := range d.Windows {
		base := hmeanOf(fmt.Sprintf("Baseline-8-win%d", win))
		rbf := hmeanOf(fmt.Sprintf("RB-full-8-win%d", win))
		d.WindowIPC[win] = map[string]float64{"Baseline": base, "RB-full": rbf}
		d.WindowGain[win] = rbf / base
	}
	for _, width := range d.Widths {
		var base, rbf float64
		if width == 8 {
			base = d.WindowIPC[128]["Baseline"]
			rbf = d.WindowIPC[128]["RB-full"]
		} else {
			base = hmeanOf(fmt.Sprintf("Baseline-%d-win128", width))
			rbf = hmeanOf(fmt.Sprintf("RB-full-%d-win128", width))
		}
		d.WidthIPC[width] = map[string]float64{"Baseline": base, "RB-full": rbf}
		d.WidthGain[width] = rbf / base
	}
	return d, nil
}

// Render writes both sweep tables.
func (d *SweepData) Render(w io.Writer) error { return write(w, d.Append(nil)) }

// Append appends both sweep tables.
func (d *SweepData) Append(dst []byte) []byte {
	dst = append(dst, "Sensitivity sweeps (SPECint95, harmonic means): RB-full vs Baseline\n\n"...)
	t := &stats.Table{Headers: []string{"window (8-wide)", "Baseline", "RB-full", "gain"}}
	for _, win := range d.Windows {
		t.AddRow(strconv.Itoa(win),
			fixed(d.WindowIPC[win]["Baseline"], 3),
			fixed(d.WindowIPC[win]["RB-full"], 3),
			gainPct(d.WindowGain[win]))
	}
	dst = append(t.Append(dst), '\n')
	t = &stats.Table{Headers: []string{"width (128-entry window)", "Baseline", "RB-full", "gain"}}
	for _, width := range d.Widths {
		t.AddRow(strconv.Itoa(width),
			fixed(d.WidthIPC[width]["Baseline"], 3),
			fixed(d.WidthIPC[width]["RB-full"], 3),
			gainPct(d.WidthGain[width]))
	}
	return t.Append(dst)
}
