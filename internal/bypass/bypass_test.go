package bypass

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigString(t *testing.T) {
	cases := []struct {
		c    Config
		want string
	}{
		{Full(), "Full"},
		{Full().Without(1), "No-1"},
		{Full().Without(2), "No-2"},
		{Full().Without(3), "No-3"},
		{Full().Without(1, 2), "No-1,2"},
		{Full().Without(2, 3), "No-2,3"},
		{None(), "No-1,2,3"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestConfigHas(t *testing.T) {
	c := Full().Without(2)
	if !c.Has(1) || c.Has(2) || !c.Has(3) {
		t.Errorf("No-2 levels: %v %v %v", c.Has(1), c.Has(2), c.Has(3))
	}
	if c.Has(0) || c.Has(4) {
		t.Error("out-of-range levels reported present")
	}
	if Only(2).Has(1) || !Only(2).Has(2) {
		t.Error("Only(2) wrong")
	}
}

func TestWithoutPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Without(4) did not panic")
		}
	}()
	Full().Without(4)
}

func TestFullScheduleIsSeamless(t *testing.T) {
	s := FromConfig(Full(), RFOffset)
	if !s.Seamless() {
		t.Error("full network not seamless")
	}
	for o := int64(1); o <= 10; o++ {
		if !s.AvailableAt(o) {
			t.Errorf("full network unavailable at offset %d", o)
		}
	}
	if s.AvailableAt(0) || s.AvailableAt(-3) {
		t.Error("available before production")
	}
	if len(s.Holes()) != 0 {
		t.Errorf("full network has holes %v", s.Holes())
	}
}

func TestHoleSchedules(t *testing.T) {
	// Paper Figure 14 configurations over the Ideal machine.
	cases := []struct {
		cfg       Config
		wantAvail map[int64]bool
		wantHoles []int64
	}{
		{Full().Without(1), map[int64]bool{1: false, 2: true, 3: true, 4: true}, nil},
		{Full().Without(2), map[int64]bool{1: true, 2: false, 3: true, 4: true}, []int64{2}},
		{Full().Without(3), map[int64]bool{1: true, 2: true, 3: false, 4: true}, []int64{3}},
		{Full().Without(1, 2), map[int64]bool{1: false, 2: false, 3: true, 4: true}, nil},
		{Full().Without(2, 3), map[int64]bool{1: true, 2: false, 3: false, 4: true}, []int64{2, 3}},
	}
	for _, c := range cases {
		s := FromConfig(c.cfg, RFOffset)
		for o, want := range c.wantAvail {
			if got := s.AvailableAt(o); got != want {
				t.Errorf("%v: available(%d) = %v, want %v", c.cfg, o, got, want)
			}
		}
		holes := s.Holes()
		if len(holes) != len(c.wantHoles) {
			t.Errorf("%v: holes %v, want %v", c.cfg, holes, c.wantHoles)
			continue
		}
		for i := range holes {
			if holes[i] != c.wantHoles[i] {
				t.Errorf("%v: holes %v, want %v", c.cfg, holes, c.wantHoles)
			}
		}
	}
}

func TestRBLimitedSchedule(t *testing.T) {
	// §4.2: RB-output value for RB consumers under the limited network —
	// BYP-1 only, then a 2-cycle hole, then the (2's-complement) register
	// file at offset 4.
	s := Schedule{LevelMask: 1 << 1, RFFrom: 4}
	wantAvail := map[int64]bool{1: true, 2: false, 3: false, 4: true, 5: true, 100: true}
	for o, want := range wantAvail {
		if got := s.AvailableAt(o); got != want {
			t.Errorf("RB-limited: available(%d) = %v, want %v", o, got, want)
		}
	}
	holes := s.Holes()
	if len(holes) != 2 || holes[0] != 2 || holes[1] != 3 {
		t.Errorf("RB-limited holes = %v, want [2 3] (the paper's 2-cycle hole)", holes)
	}
	if s.Seamless() {
		t.Error("RB-limited schedule reported seamless")
	}
}

func TestNextAvailable(t *testing.T) {
	s := Schedule{LevelMask: 1 << 1, RFFrom: 4}
	cases := []struct{ from, want int64 }{
		{0, 1}, {1, 1}, {2, 4}, {3, 4}, {4, 4}, {7, 7},
	}
	for _, c := range cases {
		if got := s.NextAvailable(c.from); got != c.want {
			t.Errorf("NextAvailable(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := Never.NextAvailable(1); got != -1 {
		t.Errorf("Never.NextAvailable = %d", got)
	}
	bypassOnly := Schedule{LevelMask: 1 << 2}
	if got := bypassOnly.NextAvailable(3); got != -1 {
		t.Errorf("bypass-only past its window: %d", got)
	}
	if got := bypassOnly.NextAvailable(1); got != 2 {
		t.Errorf("bypass-only: %d", got)
	}
}

func TestNextAvailableConsistentWithAvailableAt(t *testing.T) {
	f := func(mask uint8, rfFrom uint8, from int8) bool {
		s := Schedule{LevelMask: mask & 0b1110, RFFrom: int(rfFrom % 8)}
		o := s.NextAvailable(int64(from))
		if o < 0 {
			// Then nothing at any offset up to a large bound.
			for k := int64(from); k < 32; k++ {
				if s.AvailableAt(k) {
					return false
				}
			}
			return true
		}
		if !s.AvailableAt(o) {
			return false
		}
		start := int64(from)
		if start < 1 {
			start = 1
		}
		for k := start; k < o; k++ {
			if s.AvailableAt(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestScheduleValidate: every schedule a Figure-14 network or a converter
// of any depth produces is accepted.
func TestScheduleValidate(t *testing.T) {
	var good []Schedule
	for m := 0; m < 1<<NumLevels; m++ {
		good = append(good, FromConfig(Config{levels: uint8(m) << 1}, RFOffset))
	}
	good = append(good,
		Never,                                  // never available from this form
		Schedule{LevelMask: 1 << 1, RFFrom: 4}, // RB-limited's RB consumers
		Schedule{LevelMask: 1 << 2, RFFrom: 3}, // 1-cycle converter
		Schedule{LevelMask: 1 << 3, RFFrom: 4}, // the paper's 2-cycle converter
		Schedule{RFFrom: 5},                    // 3-cycle converter: file only
		Schedule{RFFrom: 9},
	)
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v refused: %v", s, err)
		}
	}
}

// TestScheduleValidateRefusesHoles: each impossible pattern is refused —
// a bypass level at offset 0 or above NumLevels, a forwarded value with no
// register-file tail, a hole the register file should have filled
// (including the paper's limited network with its hole widened past the
// register file, RFFrom 4 -> 5), and a negative file offset.
func TestScheduleValidateRefusesHoles(t *testing.T) {
	for _, tc := range []struct {
		s    Schedule
		want string
	}{
		{Schedule{LevelMask: 0b0011, RFFrom: 4}, "offset 0"},
		{Schedule{LevelMask: 1 << 4, RFFrom: 4}, "above 3"},
		{Schedule{LevelMask: 0b0010}, "no register-file tail"},
		{Schedule{LevelMask: 1 << 1, RFFrom: 5}, "hole at offset 4"},
		{Schedule{LevelMask: 0b10001, RFFrom: 6}, "offset 0"},
		{Schedule{LevelMask: 0b1000, RFFrom: 6}, "hole at offset 4"},
		{Schedule{RFFrom: -1}, "negative"},
	} {
		err := tc.s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err %v, want one mentioning %q", tc.s, err, tc.want)
		}
	}
}
