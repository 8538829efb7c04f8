// Package machine defines the four execution-core configurations the paper
// evaluates (§5.1) — Baseline, RB-limited, RB-full, and Ideal — at both
// execution widths, plus the limited-bypass variants of the Ideal machine
// used for Figure 14. It owns the Table 3 latency tables and the §5-model
// availability schedules consumed by the timing core.
package machine

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bypass"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Kind selects one of the paper's four machine models.
type Kind uint8

const (
	// Baseline uses 2-cycle pipelined 2's-complement ALUs.
	Baseline Kind = iota
	// RBLimited uses 1-cycle redundant binary adders with 2-cycle format
	// converters, 2's-complement register files only, and the limited bypass
	// network of §4.2 (no BYP-2; BYP-3 unusable by RB-input ALUs).
	RBLimited
	// RBFull uses the redundant binary adders with both 2's-complement and
	// redundant binary register files and a full bypass network with the
	// same path count as Baseline (§4.1, Figure 6).
	RBFull
	// Ideal uses 1-cycle 2's-complement arithmetic units.
	Ideal
	// Staggered uses 2-cycle staggered 2's-complement adders (the Pentium 4
	// technique of paper §2): the low half of the result and its carry-out
	// emerge from the first stage, so dependent arithmetic executes
	// back-to-back, while consumers needing the full result wait for the
	// second stage. No redundant representation is involved.
	Staggered
)

// String returns the paper's name for the machine model.
func (k Kind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case RBLimited:
		return "RB-limited"
	case RBFull:
		return "RB-full"
	case Ideal:
		return "Ideal"
	case Staggered:
		return "Staggered"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsRB reports whether the machine forwards redundant binary values.
func (k Kind) IsRB() bool { return k == RBLimited || k == RBFull }

// LatencyEntry is one Table 3 cell: the execution latency, plus the extra
// cycles before a TC-input consumer can use the result (the parenthetical in
// the RB column; zero elsewhere).
type LatencyEntry struct {
	Exec    int64
	TCExtra int64
}

// Config is a complete machine configuration.
type Config struct {
	// Name is the display name ("Baseline-8" etc.).
	Name string
	// Kind is the machine model.
	Kind Kind
	// Width is the execution width (number of homogeneous functional units).
	Width int
	// Clusters is the number of execution clusters (2 for the 8-wide
	// machine, 1 otherwise).
	Clusters int
	// InterClusterDelay is the extra forwarding latency between clusters.
	InterClusterDelay int64
	// WindowSize is the total reservation station count.
	WindowSize int
	// NumSchedulers and SchedulerSize partition the window; each scheduler
	// picks SelectWidth instructions per cycle.
	NumSchedulers, SchedulerSize, SelectWidth int
	// FrontWidth is the decode/rename/issue width.
	FrontWidth int
	// RetireWidth is the maximum retires per cycle.
	RetireWidth int
	// MaxFetchBlocks is the number of basic blocks fetchable per cycle.
	MaxFetchBlocks int
	// FrontLatency is fetch/decode (6) + rename (2): cycles from fetch to
	// window entry.
	FrontLatency int64
	// IssueToExecute is schedule (1) + register file read (2): cycles
	// between a grant and the start of execution.
	IssueToExecute int64
	// Latencies is the Table 3 row set for this machine.
	Latencies [isa.NumLatencyClasses]LatencyEntry
	// IdealBypass is the bypass network configuration used to build
	// availability schedules on Baseline/Ideal machines (Full except for the
	// Figure-14 variants).
	IdealBypass bypass.Config
	// Mem is the cache hierarchy configuration.
	Mem mem.HierarchyConfig
	// MemoryDependence orders loads and stores to overlapping quadwords
	// through the store queue: a load must wait for the most recent older
	// aliasing store to execute (with free store-to-load forwarding). On by
	// default in every preset.
	MemoryDependence bool
	// ModelWrongPath, when the static program image is supplied
	// (core.RunProgram / core.RunWithProgram), keeps fetching down the
	// predicted wrong path after a misprediction instead of stalling:
	// wrong-path instructions pollute the instruction cache and consume
	// fetch, window, and select resources until the branch resolves.
	ModelWrongPath bool
	// DependenceSteering enables the steering policy the paper's §4.2 names
	// as future work: instructions are placed in the cluster of their first
	// producer (least-loaded scheduler within it) instead of round-robin, so
	// fewer forwards cross the inter-cluster boundary.
	DependenceSteering bool
	// ClassSchedulers enables the first scheduling technique of paper §4.3:
	// TC-input instructions are steered to a separate group of schedulers
	// from RB-capable ones (wakeup broadcasts between the groups are latched
	// for the conversion time, which the availability schedules encode).
	ClassSchedulers bool
	// DatapathCheck enables carrying real redundant binary values through
	// the simulated bypass network and cross-checking them against the
	// functional trace (slower; used by tests and examples).
	DatapathCheck bool
}

// Validate reports configuration inconsistencies.
func (c *Config) Validate() error {
	if c.Width <= 0 || c.Width%2 != 0 {
		return fmt.Errorf("machine: width %d must be a positive multiple of 2", c.Width)
	}
	if c.NumSchedulers*c.SelectWidth != c.Width {
		return fmt.Errorf("machine: %d schedulers x select-%d != width %d", c.NumSchedulers, c.SelectWidth, c.Width)
	}
	if c.NumSchedulers*c.SchedulerSize != c.WindowSize {
		return fmt.Errorf("machine: %d schedulers x %d entries != window %d", c.NumSchedulers, c.SchedulerSize, c.WindowSize)
	}
	if c.Clusters < 1 || c.Width%c.Clusters != 0 {
		return fmt.Errorf("machine: %d clusters do not divide width %d", c.Clusters, c.Width)
	}
	if c.NumSchedulers%c.Clusters != 0 {
		return fmt.Errorf("machine: %d clusters do not divide %d schedulers", c.Clusters, c.NumSchedulers)
	}
	return nil
}

// MinPipeline is the paper's minimum pipeline depth in cycles: 6 fetch and
// decode + 2 rename + 1 schedule + 2 register file read + 1 execute +
// 1 retire = 13 (§5.1).
func (c *Config) MinPipeline() int64 {
	return c.FrontLatency + c.IssueToExecute + 1 + 1
}

// Latency returns the Table 3 entry for a latency class.
func (c *Config) Latency(class isa.LatencyClass) LatencyEntry { return c.Latencies[class] }

// common fills the width-independent parameters of Table 2.
func common(width int) Config {
	cfg := Config{
		Width:            width,
		Clusters:         1,
		WindowSize:       128,
		SelectWidth:      2,
		NumSchedulers:    width / 2,
		FrontWidth:       8,
		RetireWidth:      8,
		MaxFetchBlocks:   2,
		FrontLatency:     8, // 6 fetch/decode + 2 rename
		IssueToExecute:   3, // 1 schedule + 2 register file read
		IdealBypass:      bypass.Full(),
		MemoryDependence: true,
		Mem:              mem.DefaultConfig(),
	}
	cfg.SchedulerSize = cfg.WindowSize / cfg.NumSchedulers
	if width == 8 {
		cfg.Clusters = 2
		cfg.InterClusterDelay = 1
	}
	return cfg
}

func lat(exec, tcExtra int64) LatencyEntry { return LatencyEntry{Exec: exec, TCExtra: tcExtra} }

// baselineLatencies is the "Base" column of Table 3.
func baselineLatencies() [isa.NumLatencyClasses]LatencyEntry {
	var t [isa.NumLatencyClasses]LatencyEntry
	t[isa.LatIntArith] = lat(2, 0)
	t[isa.LatIntLogical] = lat(1, 0)
	t[isa.LatShiftLeft] = lat(3, 0)
	t[isa.LatShiftRight] = lat(3, 0)
	t[isa.LatIntCompare] = lat(2, 0)
	t[isa.LatByteManip] = lat(2, 0)
	t[isa.LatIntMul] = lat(10, 0)
	t[isa.LatFPArith] = lat(8, 0)
	t[isa.LatFPDiv] = lat(32, 0)
	t[isa.LatMemory] = lat(1, 0) // SAM address generation; dcache latency is separate
	t[isa.LatBranch] = lat(1, 0)
	return t
}

// rbLatencies is the "RB (TC result)" column of Table 3: execution latency,
// with the parenthetical as TCExtra.
func rbLatencies() [isa.NumLatencyClasses]LatencyEntry {
	var t [isa.NumLatencyClasses]LatencyEntry
	t[isa.LatIntArith] = lat(1, 2)   // 1 (3)
	t[isa.LatIntLogical] = lat(1, 0) // 1
	t[isa.LatShiftLeft] = lat(3, 2)  // 3 (5)
	t[isa.LatShiftRight] = lat(3, 0) // 3
	t[isa.LatIntCompare] = lat(1, 2) // 1 (3)
	t[isa.LatByteManip] = lat(1, 2)  // 1 (3)
	t[isa.LatIntMul] = lat(10, 0)    // 10
	t[isa.LatFPArith] = lat(8, 0)
	t[isa.LatFPDiv] = lat(32, 0)
	t[isa.LatMemory] = lat(1, 0) // 1; store data needs TC (handled per-operand)
	t[isa.LatBranch] = lat(1, 0)
	return t
}

// idealLatencies is the "Ideal" column of Table 3.
func idealLatencies() [isa.NumLatencyClasses]LatencyEntry {
	var t [isa.NumLatencyClasses]LatencyEntry
	t[isa.LatIntArith] = lat(1, 0)
	t[isa.LatIntLogical] = lat(1, 0)
	t[isa.LatShiftLeft] = lat(3, 0)
	t[isa.LatShiftRight] = lat(3, 0)
	t[isa.LatIntCompare] = lat(1, 0)
	t[isa.LatByteManip] = lat(1, 0)
	t[isa.LatIntMul] = lat(10, 0)
	t[isa.LatFPArith] = lat(8, 0)
	t[isa.LatFPDiv] = lat(32, 0)
	t[isa.LatMemory] = lat(1, 0)
	t[isa.LatBranch] = lat(1, 0)
	return t
}

// NewBaseline builds the Baseline machine at the given width (4 or 8).
func NewBaseline(width int) Config {
	c := common(width)
	c.Kind = Baseline
	c.Name = fmt.Sprintf("Baseline-%d", width)
	c.Latencies = baselineLatencies()
	return c
}

// NewRBLimited builds the RB machine with TC register files only and the
// limited bypass network of §4.2.
func NewRBLimited(width int) Config {
	c := common(width)
	c.Kind = RBLimited
	c.Name = fmt.Sprintf("RB-limited-%d", width)
	c.Latencies = rbLatencies()
	return c
}

// NewRBFull builds the RB machine with TC and RB register files.
func NewRBFull(width int) Config {
	c := common(width)
	c.Kind = RBFull
	c.Name = fmt.Sprintf("RB-full-%d", width)
	c.Latencies = rbLatencies()
	return c
}

// staggeredLatencies is the Baseline column with staggered adders: the
// arithmetic classes expose their first-stage result one cycle early to
// consumers that can start from the low half (dependent adds, compares, and
// SAM address generation), while full-width consumers wait both stages.
func staggeredLatencies() [isa.NumLatencyClasses]LatencyEntry {
	t := baselineLatencies()
	// Effective 1-cycle low-half latency, full result after the second
	// stage: encoded exactly like the RB machines' (exec, extra) pairs.
	t[isa.LatIntArith] = lat(1, 1)
	t[isa.LatIntCompare] = lat(1, 1)
	t[isa.LatByteManip] = lat(2, 0)
	return t
}

// NewStaggered builds a machine with staggered 2's-complement adders
// (paper §2's Pentium 4 example). Staggered forwarding reuses the RB-full
// availability structure — low-half consumers chain back-to-back, full-width
// consumers wait the extra stage — but no format conversion or redundant
// register file exists.
func NewStaggered(width int) Config {
	c := common(width)
	c.Kind = Staggered
	c.Name = fmt.Sprintf("Staggered-%d", width)
	c.Latencies = staggeredLatencies()
	return c
}

// NewIdeal builds the Ideal machine.
func NewIdeal(width int) Config {
	c := common(width)
	c.Kind = Ideal
	c.Name = fmt.Sprintf("Ideal-%d", width)
	c.Latencies = idealLatencies()
	return c
}

// NewIdealLimited builds the Ideal machine with a limited bypass network
// (the Figure-14 configurations).
func NewIdealLimited(width int, bp bypass.Config) Config {
	c := NewIdeal(width)
	c.IdealBypass = bp
	c.Name = fmt.Sprintf("Ideal-%d-%s", width, bp)
	return c
}

// IdealWithout builds a Figure-14 variant from a removed-levels list: the
// Ideal machine at width with the listed bypass levels ("2", "1,2")
// removed. rbsim, /v1/sim and /v1/batch all spell the variant this way.
func IdealWithout(width int, levels string) (Config, error) {
	if err := checkWidth(width); err != nil {
		return Config{}, err
	}
	bp := bypass.Full()
	for _, f := range strings.Split(levels, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || k < 1 || k > bypass.NumLevels {
			return Config{}, fmt.Errorf("bad bypass level %q", f)
		}
		bp = bp.Without(k)
	}
	return NewIdealLimited(width, bp), nil
}

// WithWindow resizes a machine's reservation window (the window sweep's
// variant), named "<name>-win<N>" so every sweep of that point shares its
// cells.
func WithWindow(c Config, window int) (Config, error) {
	if window <= 0 || c.NumSchedulers == 0 || window%c.NumSchedulers != 0 {
		return Config{}, fmt.Errorf("window %d is not divisible by %s's %d schedulers",
			window, c.Name, c.NumSchedulers)
	}
	c.WindowSize = window
	c.SchedulerSize = window / c.NumSchedulers
	c.Name = fmt.Sprintf("%s-win%d", c.Name, window)
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// checkWidth validates a width before construction: the constructors divide
// by width/2 schedulers, so a width below 2 would panic during construction
// rather than fail Config.Validate.
func checkWidth(width int) error {
	if width < 2 || width%2 != 0 || width > 64 {
		return fmt.Errorf("machine: invalid width %d (want an even width in [2, 64])", width)
	}
	return nil
}

// ByName builds one of the four paper machines by its lower-case name:
// "baseline", "rb-limited", "rb-full", or "ideal" (or "staggered").
func ByName(name string, width int) (Config, error) {
	if err := checkWidth(width); err != nil {
		return Config{}, err
	}
	switch name {
	case "baseline":
		return NewBaseline(width), nil
	case "rb-limited":
		return NewRBLimited(width), nil
	case "rb-full":
		return NewRBFull(width), nil
	case "ideal":
		return NewIdeal(width), nil
	case "staggered":
		return NewStaggered(width), nil
	}
	return Config{}, fmt.Errorf("machine: unknown machine %q (want baseline, rb-limited, rb-full, ideal, or staggered)", name)
}

// All returns the four §5.1 machines at one width, in the paper's bar order.
func All(width int) []Config {
	return []Config{NewBaseline(width), NewRBLimited(width), NewRBFull(width), NewIdeal(width)}
}

// Schedules returns the §5-model availability schedules for a result of the
// given latency class produced on this machine: the availability for
// RB-capable-input consumers and for TC-required-input consumers, both as
// offsets from the producer's final EXE cycle.
func (c *Config) Schedules(class isa.LatencyClass) (rbIn, tcIn bypass.Schedule) {
	e := c.Latencies[class]
	switch c.Kind {
	case Baseline, Ideal:
		s := bypass.FromConfig(c.IdealBypass, bypass.RFOffset)
		return s, s
	case Staggered:
		// Low-half consumers (the RB-capable classes stand in for "can start
		// from the low 32 bits") chain at offset 1; full-width consumers wait
		// the second stage. Structurally identical to RB-full's schedules.
		e := c.Latencies[class]
		if e.TCExtra == 0 {
			s := bypass.FromConfig(bypass.Full(), bypass.RFOffset)
			return s, s
		}
		tcIn = bypass.Schedule{LevelMask: 1 << uint(1+e.TCExtra), RFFrom: int(e.TCExtra) + 2}
		rbIn = bypass.FromConfig(bypass.Full(), bypass.RFOffset)
		return rbIn, tcIn
	case RBFull, RBLimited:
		if e.TCExtra == 0 {
			// TC-producing classes: seamless from offset 1 for everyone.
			s := bypass.FromConfig(bypass.Full(), bypass.RFOffset)
			return s, s
		}
		// TC consumers: BYP-3 carries the converted value at offset
		// 1+TCExtra, then the TC register file: seamless from 1+TCExtra.
		tcIn = bypass.Schedule{LevelMask: 1 << uint(1+e.TCExtra), RFFrom: int(e.TCExtra) + 2}
		if c.Kind == RBFull {
			// BYP-1 plus the RB register file: seamless from offset 1.
			rbIn = bypass.FromConfig(bypass.Full(), bypass.RFOffset)
		} else {
			// Limited network: BYP-1, the paper's 2-cycle hole, then the TC
			// register file (BYP-3 is not connected to RB-input ALUs).
			rbIn = bypass.Schedule{LevelMask: 1 << 1, RFFrom: 4}
		}
		return rbIn, tcIn
	}
	panic("machine: unknown kind")
}
