package sched

import (
	"math/rand"
	"testing"

	"repro/internal/bypass"
)

// The shift-register timer must agree cycle-for-cycle with the closed-form
// Schedule: output at grant+i asserted iff the schedule is available at
// offset i-(latency-1). This is the equivalence between Figure 8(b) and the
// availability model used by the core simulator.
func TestShiftTimerMatchesSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	for trial := 0; trial < 2000; trial++ {
		s := bypass.Schedule{
			LevelMask: uint8(r.Intn(16)) & 0b1110,
			RFFrom:    []int{0, 2, 4, 4, 4, 6}[r.Intn(6)],
		}
		latency := int64(1 + r.Intn(10))
		timer := NewShiftTimer(s, latency)
		for i := int64(0); i < 40; i++ {
			want := s.AvailableAt(i - (latency - 1))
			if got := timer.Output(); got != want {
				t.Fatalf("sched %+v latency %d: output at grant+%d = %v, want %v",
					s, latency, i, got, want)
			}
			timer.Tick()
		}
	}
}

func TestShiftTimerHolePattern(t *testing.T) {
	// The paper's RB-limited pattern: available at offset 1, a 2-cycle hole,
	// then the register file. For a 1-cycle producer the register contents
	// interleave 0s and 1s exactly as §4.3 describes.
	s := bypass.Schedule{LevelMask: 1 << 1, RFFrom: 4}
	timer := NewShiftTimer(s, 1)
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, timer.Output())
		timer.Tick()
	}
	want := []bool{false, true, false, false, true, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pattern %v, want %v", got, want)
		}
	}
}

func TestShiftTimerTwoCycleProducer(t *testing.T) {
	// A 2-cycle pipelined adder with a full network: dependents can issue
	// starting 2 cycles after grant, never before.
	s := bypass.FromConfig(bypass.Full(), bypass.RFOffset)
	timer := NewShiftTimer(s, 2)
	outs := []bool{}
	for i := 0; i < 6; i++ {
		outs = append(outs, timer.Output())
		timer.Tick()
	}
	want := []bool{false, false, true, true, true, true}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("2-cycle producer pattern %v, want %v", outs, want)
		}
	}
}
