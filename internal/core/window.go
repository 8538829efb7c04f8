package core

// WindowResult is a windowed run: the full-window Result plus the warm-up /
// measurement split.
type WindowResult struct {
	// Result covers the whole window (warm-up + measurement).
	Result *Result
	// WarmupInstructions/WarmupCycles cover the warm-up prefix.
	WarmupInstructions int64
	WarmupCycles       int64
	// MeasuredInstructions/MeasuredCycles cover the measurement window.
	MeasuredInstructions int64
	MeasuredCycles       int64
}

// MeasuredIPC is the measurement window's instructions per cycle.
func (w *WindowResult) MeasuredIPC() float64 {
	if w.MeasuredCycles == 0 {
		return 0
	}
	return float64(w.MeasuredInstructions) / float64(w.MeasuredCycles)
}

// Window reads the warm-up/measurement split (Options.Warmup and Measure)
// of a finished run: the cycle at which the last warm-up instruction retires
// ends the warm-up and starts the measurement. Call it after Simulate.
func (s *Simulator) Window() *WindowResult {
	measured, end := int64(s.n)-int64(s.warmBoundary), s.res.Cycles
	if s.measureBoundary > 0 {
		measured, end = int64(s.measureBoundary-s.warmBoundary), s.measureEndCycle
	}
	return &WindowResult{
		Result:               s.res,
		WarmupInstructions:   int64(s.warmBoundary),
		WarmupCycles:         s.warmEndCycle,
		MeasuredInstructions: measured,
		MeasuredCycles:       end - s.warmEndCycle,
	}
}
