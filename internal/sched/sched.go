// Package sched implements the wakeup-array scheduling logic of paper §4.3
// (Figure 8): per-resource RESOURCE AVAILABLE lines driven by countdown
// shift registers seeded at select time.
//
// The key mechanism is the shift register of Figure 8(b): when an
// instruction is granted execution, a register seeded with the availability
// pattern of its result begins shifting; its output is the RESOURCE
// AVAILABLE line dependents monitor. "To handle holes in data availability,
// the initial value in the shift register would interleave 0s and 1s
// according to which levels of the bypass network were missing." The
// Schedule type in internal/bypass is the closed-form view of the same
// pattern; ShiftTimer is the literal hardware model, and the two are
// verified equivalent by the package tests.
package sched

import "repro/internal/bypass"

// shiftWindow is how many cycles of explicit pattern a ShiftTimer holds
// before the register-file tail takes over.
const shiftWindow = bypass.NumLevels + 1

// ShiftTimer is the Figure-8(b) countdown shift register for one produced
// value form. It is seeded when the producer is granted execution and ticked
// once per cycle; Output is the RESOURCE AVAILABLE line.
type ShiftTimer struct {
	// pattern bit i = resource available i cycles from now.
	pattern uint64
	// rfTail is set when, after the pattern drains, the resource remains
	// available forever (register file).
	rfTail bool
	// tailIn counts remaining ticks until rfTail takes effect.
	tailIn int64
}

// NewShiftTimer seeds a timer at grant time for a producer with the given
// execution latency whose value follows sched. Bit 0 of the seeded pattern
// corresponds to the grant cycle itself (never available: offset 0 from
// production is the producing cycle).
func NewShiftTimer(sched bypass.Schedule, latency int64) ShiftTimer {
	t := ShiftTimer{}
	// Offsets are relative to production at latency-1 cycles after grant;
	// a consumer granted in cycle grant+i reads the value at offset
	// i - (latency - 1).
	horizon := latency - 1 + int64(shiftWindow)
	for i := int64(0); i <= horizon; i++ {
		off := i - (latency - 1)
		if off >= 1 && off <= int64(shiftWindow) && sched.AvailableAt(off) {
			t.pattern |= 1 << uint(i)
		}
	}
	if sched.RFFrom > 0 {
		t.rfTail = true
		t.tailIn = latency - 1 + int64(sched.RFFrom)
	}
	return t
}

// Output is the RESOURCE AVAILABLE line for the current cycle.
func (t *ShiftTimer) Output() bool {
	if t.rfTail && t.tailIn <= 0 {
		return true
	}
	return t.pattern&1 != 0
}

// Tick advances the register by one cycle.
func (t *ShiftTimer) Tick() {
	t.pattern >>= 1
	if t.tailIn > 0 {
		t.tailIn--
	}
}
