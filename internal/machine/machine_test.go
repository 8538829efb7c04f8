package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bypass"
	"repro/internal/isa"
)

// withConverter sets the RB->TC conversion depth of the classes whose
// results need one, as BenchmarkAblationConversionLatency's conv1-conv3 do.
func withConverter(c Config, conv int64) Config {
	c.Name = fmt.Sprintf("%s-conv%d", c.Name, conv)
	for _, cls := range []isa.LatencyClass{isa.LatIntArith, isa.LatIntCompare, isa.LatByteManip, isa.LatShiftLeft} {
		c.Latencies[cls].TCExtra = conv
	}
	return c
}

// shippedConfigs is every machine a command, artifact, sweep, example or
// benchmark builds: the five kinds at widths 4 and 8, every Figure-14
// level set, the sweeps' (width, window) points, and the converter-depth
// ablation.
func shippedConfigs(t *testing.T) []Config {
	t.Helper()
	var out []Config
	for _, w := range []int{4, 8} {
		out = append(out, All(w)...)
		out = append(out, NewStaggered(w))
		for _, levels := range []string{"1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"} {
			c, err := IdealWithout(w, levels)
			if err != nil {
				t.Fatalf("IdealWithout(%d, %q): %v", w, levels, err)
			}
			out = append(out, c)
		}
	}
	// experiments.Sweeps: windows at width 8, widths at window 128.
	points := [][2]int{{8, 32}, {8, 64}, {8, 128}, {8, 256}, {2, 128}, {4, 128}, {16, 128}}
	for _, p := range points {
		for _, c := range []Config{NewBaseline(p[0]), NewRBFull(p[0])} {
			c, err := WithWindow(c, p[1])
			if err != nil {
				t.Fatalf("WithWindow(%s, %d): %v", c.Name, p[1], err)
			}
			out = append(out, c)
		}
	}
	for _, conv := range []int64{1, 2, 3} {
		out = append(out, withConverter(NewRBFull(8), conv), withConverter(NewRBLimited(8), conv))
	}
	return out
}

func TestAllConfigsValidate(t *testing.T) {
	for _, cfg := range shippedConfigs(t) {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		for class := isa.LatencyClass(0); class < isa.NumLatencyClasses; class++ {
			rbIn, tcIn := cfg.Schedules(class)
			for _, s := range []bypass.Schedule{rbIn, tcIn} {
				if err := s.Validate(); err != nil {
					t.Errorf("%s %v: %v", cfg.Name, class, err)
				}
			}
		}
	}
}

// TestValidateAllocatesNothing: core.New and every /v1/cell request call
// Validate, so a valid config must cost no allocation.
func TestValidateAllocatesNothing(t *testing.T) {
	cfg := withConverter(NewRBLimited(8), 3)
	if n := testing.AllocsPerRun(100, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocated %v times per call", n)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"width 6 with 4 schedulers", func(c *Config) { c.Width = 6 }},
		{"window mismatch", func(c *Config) { c.SchedulerSize = 10 }},
		{"3 clusters", func(c *Config) { c.Clusters = 3 }},
		{"negative schedulers", func(c *Config) {
			c.NumSchedulers, c.SelectWidth, c.SchedulerSize = -4, -2, -32
		}},
		{"unknown kind", func(c *Config) { c.Kind = 9 }},
		{"front width 0", func(c *Config) { c.FrontWidth = 0 }},
		{"retire width 0", func(c *Config) { c.RetireWidth = 0 }},
		{"fetch blocks 0", func(c *Config) { c.MaxFetchBlocks = 0 }},
		{"front latency -5", func(c *Config) { c.FrontLatency = -5 }},
		{"issue-to-execute -1", func(c *Config) { c.IssueToExecute = -1 }},
		{"inter-cluster delay -1", func(c *Config) { c.InterClusterDelay = -1 }},
		{"exec 0", func(c *Config) { c.Latencies[isa.LatIntArith].Exec = 0 }},
		{"TC extra -1", func(c *Config) { c.Latencies[isa.LatIntArith].TCExtra = -1 }},
		{"TC extra -2", func(c *Config) { c.Latencies[isa.LatIntArith].TCExtra = -2 }},
		{"L1D size 0", func(c *Config) { c.Mem.L1D.SizeBytes = 0 }},
		{"L2 banks 0", func(c *Config) { c.Mem.L2Banks = 0 }},
		{"memory banks 0", func(c *Config) { c.Mem.MemBanks = 0 }},
		{"memory latency -1", func(c *Config) { c.Mem.MemLatency = -1 }},
		// Oversized: each row passes every other check, so only the bound
		// refuses it.
		{"width 128", func(c *Config) { c.Width, c.NumSchedulers, c.SchedulerSize = 128, 64, 2 }},
		{"window 1<<20", func(c *Config) { c.WindowSize, c.SchedulerSize = 1<<20, 1<<18 }},
		{"schedulers whose products wrap", func(c *Config) {
			c.NumSchedulers, c.SelectWidth, c.SchedulerSize, c.WindowSize = 2+1<<62, 4, 32, 64
		}},
		{"front width 1<<40", func(c *Config) { c.FrontWidth = 1 << 40 }},
		{"retire width 1<<40", func(c *Config) { c.RetireWidth = 1 << 40 }},
		{"front latency 1<<40", func(c *Config) { c.FrontLatency = 1 << 40 }},
		{"L2 size 1<<62", func(c *Config) { c.Mem.L2.SizeBytes = 1 << 62 }},
		{"L2 ways 128", func(c *Config) { c.Mem.L2.Ways = 128 }},
		{"L2 banks 1<<40", func(c *Config) { c.Mem.L2Banks = 1 << 40 }},
		{"memory banks 1<<40", func(c *Config) { c.Mem.MemBanks = 1 << 40 }},
	} {
		c := NewRBFull(8)
		tc.edit(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestPaperTable2Partitioning(t *testing.T) {
	// §5.1: "The 4-wide machine had two schedulers, each holding 64
	// instructions. The 8-wide machine was partitioned into two clusters...
	// 4 schedulers, each with 32 instructions."
	c4 := NewIdeal(4)
	if c4.NumSchedulers != 2 || c4.SchedulerSize != 64 || c4.Clusters != 1 {
		t.Errorf("4-wide partitioning: %+v", c4)
	}
	c8 := NewIdeal(8)
	if c8.NumSchedulers != 4 || c8.SchedulerSize != 32 || c8.Clusters != 2 || c8.InterClusterDelay != 1 {
		t.Errorf("8-wide partitioning: %+v", c8)
	}
	if c8.WindowSize != 128 || c8.FrontWidth != 8 {
		t.Errorf("window/front: %+v", c8)
	}
}

func TestMinPipelineIs13(t *testing.T) {
	// §5.1: "The pipeline latency was a minimum of 13 cycles."
	for _, cfg := range All(8) {
		if got := cfg.MinPipeline(); got != 13 {
			t.Errorf("%s: MinPipeline() = %d, want 13", cfg.Name, got)
		}
	}
}

func TestTable3Latencies(t *testing.T) {
	// The exact Table 3 contents.
	type row struct {
		class               isa.LatencyClass
		base, rb, rbTC, idl int64
	}
	rows := []row{
		{isa.LatIntArith, 2, 1, 3, 1},
		{isa.LatIntLogical, 1, 1, 1, 1},
		{isa.LatShiftLeft, 3, 3, 5, 3},
		{isa.LatShiftRight, 3, 3, 3, 3},
		{isa.LatIntCompare, 2, 1, 3, 1},
		{isa.LatByteManip, 2, 1, 3, 1},
		{isa.LatIntMul, 10, 10, 10, 10},
		{isa.LatFPArith, 8, 8, 8, 8},
		{isa.LatFPDiv, 32, 32, 32, 32},
		{isa.LatMemory, 1, 1, 1, 1},
	}
	base, rbm, idl := NewBaseline(8), NewRBFull(8), NewIdeal(8)
	for _, r := range rows {
		if got := base.Latency(r.class).Exec; got != r.base {
			t.Errorf("Baseline %v = %d, want %d", r.class, got, r.base)
		}
		e := rbm.Latency(r.class)
		if e.Exec != r.rb || e.Exec+e.TCExtra != r.rbTC {
			t.Errorf("RB %v = %d (%d), want %d (%d)", r.class, e.Exec, e.Exec+e.TCExtra, r.rb, r.rbTC)
		}
		if got := idl.Latency(r.class).Exec; got != r.idl {
			t.Errorf("Ideal %v = %d, want %d", r.class, got, r.idl)
		}
	}
}

func TestSchedulesBaselineIdealSeamless(t *testing.T) {
	for _, cfg := range []Config{NewBaseline(8), NewIdeal(4)} {
		rbIn, tcIn := cfg.Schedules(isa.LatIntArith)
		if !rbIn.Seamless() || !tcIn.Seamless() {
			t.Errorf("%s: full-network schedules not seamless", cfg.Name)
		}
		if !rbIn.AvailableAt(1) {
			t.Errorf("%s: back-to-back bypass missing", cfg.Name)
		}
	}
}

func TestSchedulesIdealLimitedHoles(t *testing.T) {
	cfg := NewIdealLimited(8, bypass.Full().Without(2))
	s, _ := cfg.Schedules(isa.LatIntArith)
	if s.AvailableAt(2) {
		t.Error("No-2 machine available at offset 2")
	}
	if !s.AvailableAt(1) || !s.AvailableAt(3) || !s.AvailableAt(4) {
		t.Error("No-2 machine missing offsets 1/3/4")
	}
}

func TestSchedulesRBFull(t *testing.T) {
	cfg := NewRBFull(8)
	rbIn, tcIn := cfg.Schedules(isa.LatIntArith)
	if !rbIn.Seamless() || rbIn.NextAvailable(1) != 1 {
		t.Errorf("RB-full RB-consumer schedule: %+v", rbIn)
	}
	// TC consumers: seamless from offset 3 (1-cycle add + 2-cycle convert).
	if tcIn.AvailableAt(1) || tcIn.AvailableAt(2) {
		t.Error("TC consumer sees unconverted result")
	}
	if !tcIn.AvailableAt(3) || !tcIn.AvailableAt(4) || !tcIn.AvailableAt(10) {
		t.Errorf("TC consumer schedule: %+v", tcIn)
	}
}

func TestSchedulesRBLimitedHole(t *testing.T) {
	cfg := NewRBLimited(8)
	rbIn, tcIn := cfg.Schedules(isa.LatIntArith)
	// §4.2: available immediately, then a 2-cycle hole, then the register
	// file.
	wantAvail := map[int64]bool{1: true, 2: false, 3: false, 4: true, 5: true}
	for o, want := range wantAvail {
		if got := rbIn.AvailableAt(o); got != want {
			t.Errorf("RB-limited rbIn(%d) = %v, want %v", o, got, want)
		}
	}
	holes := rbIn.Holes()
	if len(holes) != 2 {
		t.Errorf("RB-limited holes = %v, want the 2-cycle hole", holes)
	}
	// TC consumers unchanged from RB-full.
	if !tcIn.AvailableAt(3) || tcIn.AvailableAt(2) {
		t.Errorf("RB-limited tcIn: %+v", tcIn)
	}
}

// TestWidenedRBLimitedHoleRefused widens the limited network's hole by one
// cycle (RFFrom 4 -> 5): the register file serves offset 4, so the extra
// hole is a hardware description the paper's Fig. 14 rules out, and the
// schedule check Validate applies refuses it.
func TestWidenedRBLimitedHoleRefused(t *testing.T) {
	cfg := NewRBLimited(8)
	rbIn, _ := cfg.Schedules(isa.LatIntArith)
	if err := rbIn.Validate(); err != nil {
		t.Fatalf("RB-limited rbIn %+v refused: %v", rbIn, err)
	}
	rbIn.RFFrom++
	if err := rbIn.Validate(); err == nil || !strings.Contains(err.Error(), "hole at offset 4") {
		t.Errorf("widened RB-limited rbIn %+v: err %v, want the hole at offset 4", rbIn, err)
	}
}

func TestSchedulesTCProducersOnRBMachines(t *testing.T) {
	// Logical/load results are 2's complement: available to everyone at
	// offset 1, even on the RB machines.
	for _, cfg := range []Config{NewRBFull(8), NewRBLimited(8)} {
		for _, class := range []isa.LatencyClass{isa.LatIntLogical, isa.LatMemory, isa.LatIntMul} {
			rbIn, tcIn := cfg.Schedules(class)
			if !rbIn.AvailableAt(1) || !tcIn.AvailableAt(1) {
				t.Errorf("%s %v: TC producer not immediately available", cfg.Name, class)
			}
		}
	}
}

func TestKindStringAndIsRB(t *testing.T) {
	if Baseline.String() != "Baseline" || RBLimited.String() != "RB-limited" ||
		RBFull.String() != "RB-full" || Ideal.String() != "Ideal" {
		t.Error("kind names wrong")
	}
	if Baseline.IsRB() || Ideal.IsRB() || !RBFull.IsRB() || !RBLimited.IsRB() {
		t.Error("IsRB wrong")
	}
}

func TestByName(t *testing.T) {
	for name, kind := range map[string]Kind{
		"baseline": Baseline, "rb-limited": RBLimited, "rb-full": RBFull, "ideal": Ideal,
	} {
		cfg, err := ByName(name, 8)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if cfg.Kind != kind || cfg.Width != 8 {
			t.Errorf("ByName(%q) = %s width %d", name, cfg.Kind, cfg.Width)
		}
	}
	if _, err := ByName("bogus", 8); err == nil {
		t.Error("ByName accepted unknown machine")
	}
}

func TestStaggeredMachine(t *testing.T) {
	c := NewStaggered(8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Kind.IsRB() {
		t.Error("staggered machine reported as redundant binary")
	}
	if c.Kind.String() != "Staggered" {
		t.Errorf("kind name %q", c.Kind.String())
	}
	// Low-half forwarding: effective 1-cycle adds, full result one stage
	// later (paper §2: the carry-out of the 16th bit and the lower half are
	// produced in the first cycle).
	e := c.Latency(isa.LatIntArith)
	if e.Exec != 1 || e.TCExtra != 1 {
		t.Errorf("staggered arithmetic latency %+v, want {1 1}", e)
	}
	rbIn, tcIn := c.Schedules(isa.LatIntArith)
	if !rbIn.AvailableAt(1) {
		t.Error("staggered low half not forwardable back-to-back")
	}
	if tcIn.AvailableAt(1) || !tcIn.AvailableAt(2) {
		t.Errorf("staggered full-result availability wrong: %+v", tcIn)
	}
	// Logical ops are ordinary single-cycle full-width results.
	rbIn, tcIn = c.Schedules(isa.LatIntLogical)
	if !rbIn.AvailableAt(1) || !tcIn.AvailableAt(1) {
		t.Error("staggered logical ops should be seamless")
	}
	if _, err := ByName("staggered", 4); err != nil {
		t.Errorf("ByName(staggered): %v", err)
	}
}
