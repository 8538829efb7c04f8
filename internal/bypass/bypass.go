// Package bypass models multi-level bypass networks and the data-availability
// schedules they induce (paper §4.1-4.2).
//
// A pipelined functional unit or multi-cycle register file needs several
// levels of bypass buses so that a result is obtainable every cycle between
// its production and the first cycle it can be read from the register file.
// Removing a level removes exactly one cycle of availability, creating a
// *hole* the scheduler must schedule around (paper Figure 7).
//
// Conventions: let T be the cycle in which the producer's final EXE stage
// ends (for redundant binary producers, the cycle the RB result exists; the
// 2's-complement form exists two converter stages later). A consumer's EXE
// may start at offset k >= 1 after the relevant form's production when
//
//   - bypass level k exists (k = 1..NumLevels), or
//   - k >= RFFrom, the first offset served by the register file that stores
//     the form (including the file's internal write-to-read bypass).
//
// With the paper's 2-cycle register file and single-cycle ALUs, a full
// network needs NumLevels = 3 levels (offsets 1-3) and the register file
// serves offsets >= 4.
package bypass

import (
	"fmt"
	"strconv"
	"strings"
)

// NumLevels is the number of bypass levels in a full network for the paper's
// machine (2-cycle register file, §5.2 "three levels of bypass paths were
// required for a full bypass network").
const NumLevels = 3

// RFOffset is the first consumer-EXE offset served by a 2-cycle register
// file after the producing form is written back (1 write-back + 2 read
// stages).
const RFOffset = NumLevels + 1

// Config records which levels of a bypass network are present.
type Config struct {
	levels uint8 // bit k (1..NumLevels) set = level present
}

// Full returns the complete network.
func Full() Config {
	var c Config
	for k := 1; k <= NumLevels; k++ {
		c.levels |= 1 << k
	}
	return c
}

// Without returns a copy of the configuration with the given levels removed
// (the paper's No-1, No-2, No-1,2, ... machines).
func (c Config) Without(levels ...int) Config {
	for _, k := range levels {
		if k < 1 || k > NumLevels {
			panic(fmt.Sprintf("bypass: level %d out of range", k))
		}
		c.levels &^= 1 << k
	}
	return c
}

// Only returns a configuration with exactly the given levels.
func Only(levels ...int) Config {
	var c Config
	for _, k := range levels {
		if k < 1 || k > NumLevels {
			panic(fmt.Sprintf("bypass: level %d out of range", k))
		}
		c.levels |= 1 << k
	}
	return c
}

// None returns a configuration with no bypass paths at all.
func None() Config { return Config{} }

// Has reports whether level k is present.
func (c Config) Has(k int) bool { return k >= 1 && k <= NumLevels && c.levels>>k&1 != 0 }

// String renders like "Full", "No-2", "No-1,2". Every cell key carries
// it, so the names are built once per level mask, not on each lookup.
func (c Config) String() string { return configNames[c.levels] }

// configNames is String for every level mask.
var configNames = func() (names [2 << NumLevels]string) {
	for m := range names {
		var missing []string
		for k := 1; k <= NumLevels; k++ {
			if m>>k&1 == 0 {
				missing = append(missing, strconv.Itoa(k))
			}
		}
		names[m] = "Full"
		if len(missing) > 0 {
			names[m] = "No-" + strings.Join(missing, ",")
		}
	}
	return names
}()

// Schedule is the availability function of one produced value form for one
// consumer class, relative to the form's production cycle. It is exactly the
// initial content of the Figure-8 countdown shift register: a (possibly
// holey) pattern of 1s over the bypass offsets, followed by the register
// file's seamless availability.
type Schedule struct {
	// LevelMask has bit k set when the consumer can take the value at offset
	// k from bypass level k (k = 1..NumLevels).
	LevelMask uint8
	// RFFrom is the first offset at which the register file (or its internal
	// write-to-read bypass) supplies the value; 0 means the form is never
	// available from a register file (it must be caught on the fly or
	// obtained in another form).
	RFFrom int
}

// FromConfig builds a schedule whose bypass offsets follow the network
// configuration and whose register file serves offsets >= rfFrom.
func FromConfig(c Config, rfFrom int) Schedule {
	return Schedule{LevelMask: c.levels, RFFrom: rfFrom}
}

// Never is the empty schedule.
var Never = Schedule{}

// AvailableAt reports whether a consumer EXE starting `offset` cycles after
// the form's production can obtain the value.
func (s Schedule) AvailableAt(offset int64) bool {
	if offset < 1 {
		return false
	}
	if s.RFFrom > 0 && offset >= int64(s.RFFrom) {
		return true
	}
	return offset <= NumLevels && s.LevelMask>>uint(offset)&1 != 0
}

// NextAvailable returns the smallest offset >= from at which the value is
// available, or -1 if it never becomes available.
func (s Schedule) NextAvailable(from int64) int64 {
	if from < 1 {
		from = 1
	}
	for o := from; o <= NumLevels+1; o++ {
		if s.AvailableAt(o) {
			return o
		}
	}
	if s.RFFrom > 0 {
		if from > int64(s.RFFrom) {
			return from
		}
		return int64(s.RFFrom)
	}
	return -1
}

// Seamless reports whether the schedule has no holes from its first
// available offset onward.
func (s Schedule) Seamless() bool {
	first := s.NextAvailable(1)
	if first < 0 {
		return false
	}
	if s.RFFrom == 0 {
		return false // bypass-only availability always ends
	}
	for o := first; o < int64(s.RFFrom); o++ {
		if !s.AvailableAt(o) {
			return false
		}
	}
	return true
}

// Validate reports a schedule no bypass network of the paper's machine can
// produce (§4.2, Figure 14): a level-0 tap (a result forwarded in its own
// production cycle), a tap above NumLevels, a negative RFFrom, bypass levels
// with no register-file tail (the value is unobtainable once the last level
// drains and its consumer waits forever), or a hole past NumLevels. Holes
// exist only where a bypass level is missing; the register file serves
// every offset from its first one on, so a gap between the last level and
// RFFrom would be a hole no level removal makes. RFFrom itself may lie
// past RFOffset: a schedule is relative to its own form's production, and
// a form converted later is read from the file later.
func (s Schedule) Validate() error {
	switch {
	case s.LevelMask&1 != 0:
		return fmt.Errorf("bypass: schedule %+v forwards at offset 0, before the result exists", s)
	case s.LevelMask>>(NumLevels+1) != 0:
		return fmt.Errorf("bypass: schedule %+v names a bypass level above %d", s, NumLevels)
	case s.RFFrom < 0:
		return fmt.Errorf("bypass: schedule %+v has a negative register-file offset", s)
	case s.LevelMask != 0 && s.RFFrom == 0:
		return fmt.Errorf("bypass: schedule %+v has bypass levels but no register-file tail", s)
	case s.LevelMask != 0 && s.RFFrom > NumLevels+1:
		// Holes() would hold NumLevels+1 .. RFFrom-1 (checked without building it).
		return fmt.Errorf("bypass: schedule %+v has a hole at offset %d, past the last bypass level %d", s, NumLevels+1, NumLevels)
	}
	return nil
}

// Holes lists the unavailable offsets between the first and last available
// bypass/register-file offsets (the data-availability holes of §4.2).
func (s Schedule) Holes() []int64 {
	first := s.NextAvailable(1)
	if first < 0 || s.RFFrom == 0 {
		return nil
	}
	var holes []int64
	for o := first; o < int64(s.RFFrom); o++ {
		if !s.AvailableAt(o) {
			holes = append(holes, o)
		}
	}
	return holes
}
