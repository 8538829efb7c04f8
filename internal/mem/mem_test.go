package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rb"
)

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 1024, LineBytes: 48, Ways: 2},            // line not power of two
		{SizeBytes: 1000, LineBytes: 64, Ways: 2},            // size not divisible
		{SizeBytes: 64 * 3, LineBytes: 64, Ways: 1},          // sets not power of two
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},            // zero ways
		{SizeBytes: 0, LineBytes: 64, Ways: 2},               // no sets
		{SizeBytes: -1024, LineBytes: 64, Ways: 2},           // negative sets
		{SizeBytes: 1024, LineBytes: 1 << 32, Ways: 1 << 32}, // line x ways overflows
		{SizeBytes: 1 << 62, LineBytes: 64, Ways: 8},         // over MaxCacheBytes
		{SizeBytes: 1 << 20, LineBytes: 64, Ways: 128},       // over MaxWays
	}
	for _, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("NewCache(%+v) accepted invalid config", cfg)
		}
	}
}

// TestHierarchyConfigValidation: a geometry or contention model the
// hierarchy cannot be built from, or a latency that runs time backwards, is
// an error from NewHierarchy, never a panic in the core's MustHierarchy.
func TestHierarchyConfigValidation(t *testing.T) {
	for name, edit := range map[string]func(*HierarchyConfig){
		"L1I size 0":      func(c *HierarchyConfig) { c.L1I.SizeBytes = 0 },
		"L1D size 0":      func(c *HierarchyConfig) { c.L1D.SizeBytes = 0 },
		"L2 ways 3":       func(c *HierarchyConfig) { c.L2.Ways = 3 },
		"L2 banks 0":      func(c *HierarchyConfig) { c.L2Banks = 0 },
		"memory banks 0":  func(c *HierarchyConfig) { c.MemBanks = 0 },
		"L1D latency -1":  func(c *HierarchyConfig) { c.L1DLatency = -1 },
		"L2 busy -1":      func(c *HierarchyConfig) { c.L2BankBusy = -1 },
		"memory -100":     func(c *HierarchyConfig) { c.MemLatency = -100 },
		"L2 size 1<<62":   func(c *HierarchyConfig) { c.L2.SizeBytes = 1 << 62 },
		"L2 ways 128":     func(c *HierarchyConfig) { c.L2.Ways = 128 },
		"L2 banks 1<<40":  func(c *HierarchyConfig) { c.L2Banks = 1 << 40 },
		"mem banks 1<<40": func(c *HierarchyConfig) { c.MemBanks = 1 << 40 },
	} {
		cfg := DefaultConfig()
		edit(&cfg)
		if _, err := NewHierarchy(cfg); err == nil {
			t.Errorf("%s: NewHierarchy accepted %+v", name, cfg)
		}
	}
	if _, err := NewHierarchy(DefaultConfig()); err != nil {
		t.Errorf("Table 2 hierarchy refused: %v", err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := MustCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if hit, _ := c.Access(0, false); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(0, false); !hit {
		t.Error("warm access missed")
	}
	if hit, _ := c.Access(32, false); !hit {
		t.Error("same-line access missed")
	}
	if hit, _ := c.Access(64, false); hit {
		t.Error("next-line access hit")
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 2-way: fill a set with A and B, touch A, insert C; B must be evicted.
	c := MustCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	setStride := uint64(c.Sets() * 64)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // A most recent
	c.Access(d, false) // evicts B
	if !c.Probe(a) {
		t.Error("A evicted despite being MRU")
	}
	if c.Probe(b) {
		t.Error("B survived despite being LRU")
	}
	if !c.Probe(d) {
		t.Error("C not resident after insertion")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := MustCache(CacheConfig{SizeBytes: 128, LineBytes: 64, Ways: 1})
	c.Access(0, true) // dirty
	_, wb := c.Access(uint64(c.Sets()*64), false)
	if !wb {
		t.Error("dirty eviction did not report writeback")
	}
	_, wb = c.Access(uint64(2*c.Sets()*64), false)
	if wb {
		t.Error("clean eviction reported writeback")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writeback count %d", c.Stats().Writebacks)
	}
}

func TestCacheStats(t *testing.T) {
	c := MustCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	for i := 0; i < 10; i++ {
		c.Access(uint64(i*64), false)
	}
	for i := 0; i < 10; i++ {
		c.Access(uint64(i*64), false)
	}
	s := c.Stats()
	if s.Misses != 10 || s.Hits != 10 {
		t.Errorf("stats %+v", s)
	}
	if s.MissRate() != 0.5 {
		t.Errorf("miss rate %f", s.MissRate())
	}
}

func TestCacheProbeDoesNotPerturb(t *testing.T) {
	c := MustCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	c.Access(0, false)
	before := c.Stats()
	for i := 0; i < 100; i++ {
		c.Probe(uint64(i * 64))
	}
	if c.Stats() != before {
		t.Error("Probe changed statistics")
	}
}

func TestSAMMatchEquality(t *testing.T) {
	f := func(a, b uint64) bool {
		return SAMMatch(a, b, a+b, 0) && SAMMatch(a, b, a+b+1, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestSAMMatchRejectsNonSums(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	for i := 0; i < 3000; i++ {
		a, b := r.Uint64(), r.Uint64()
		k := r.Uint64()
		want := k == a+b
		if SAMMatch(a, b, k, 0) != want {
			t.Fatalf("SAMMatch(%#x, %#x, %#x) = %v, want %v", a, b, k, !want, want)
		}
	}
}

func TestSAMMatch3(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for i := 0; i < 3000; i++ {
		base := rb.FromUint(r.Uint64())
		// Mix in nontrivial representations via RB arithmetic.
		base, _ = rb.Add(base, rb.FromUint(r.Uint64()))
		disp := uint64(int64(int16(r.Uint32())))
		plus, minus := base.Components()
		sum := plus - minus + disp
		if !SAMMatch3(plus, minus, disp, sum) {
			t.Fatalf("SAMMatch3 rejected true sum for %v + %d", base, int64(disp))
		}
		if SAMMatch3(plus, minus, disp, sum+1) || SAMMatch3(plus, minus, disp, sum^(1<<40)) {
			t.Fatalf("SAMMatch3 accepted wrong sum for %v + %d", base, int64(disp))
		}
	}
}

func TestDecoderOneHot(t *testing.T) {
	// Exactly one row must match, and it must be the row of base+disp.
	d := NewDecoder(6, 6) // 64 rows, 64-byte lines (the paper's 8KB 2-way L1D)
	r := rand.New(rand.NewSource(72))
	for i := 0; i < 200; i++ {
		base := r.Uint64() % (1 << 40)
		disp := int64(int16(r.Uint32()))
		want := d.Decode(base, disp)
		matches := 0
		for row := uint64(0); row < uint64(d.Rows()); row++ {
			if d.MatchRow(base, disp, row) {
				matches++
				if row != want {
					t.Fatalf("row %d matched, want %d", row, want)
				}
			}
		}
		if matches != 1 {
			t.Fatalf("one-hot violated: %d rows matched for %#x + %d", matches, base, disp)
		}
	}
}

func TestDecoderRBOneHot(t *testing.T) {
	d := NewDecoder(6, 6)
	r := rand.New(rand.NewSource(73))
	for i := 0; i < 200; i++ {
		base := rb.FromUint(r.Uint64() % (1 << 40))
		base, _ = rb.Add(base, rb.FromUint(r.Uint64()%(1<<40)))
		disp := int64(int16(r.Uint32()))
		want := d.DecodeRB(base, disp)
		matches := 0
		for row := uint64(0); row < uint64(d.Rows()); row++ {
			if d.MatchRowRB(base, disp, row) {
				matches++
				if row != want {
					t.Fatalf("RB row %d matched, want %d", row, want)
				}
			}
		}
		if matches != 1 {
			t.Fatalf("RB one-hot violated: %d rows matched", matches)
		}
	}
}

func TestDecoderMatchesCacheIndex(t *testing.T) {
	c := MustCache(DefaultConfig().L1D)
	d := DecoderFor(c)
	r := rand.New(rand.NewSource(74))
	for i := 0; i < 1000; i++ {
		base := r.Uint64() % (1 << 44)
		disp := int64(int16(r.Uint32()))
		if d.Decode(base, disp) != c.Index(base+uint64(disp)) {
			t.Fatalf("decoder row != cache index for %#x + %d", base, disp)
		}
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := MustHierarchy(DefaultConfig())
	cfg := DefaultConfig()

	// Cold load: L1D miss -> L2 miss -> memory.
	coldDone := h.Load(0x10000, 100)
	wantCold := int64(100) + cfg.L1DLatency + cfg.L2Latency + cfg.MemLatency
	if coldDone != wantCold {
		t.Errorf("cold load done at %d, want %d", coldDone, wantCold)
	}
	// A second load while the fill is still outstanding merges with it
	// (MSHR behavior) rather than hitting instantly.
	mergeDone := h.Load(0x10000, 150)
	if mergeDone != coldDone {
		t.Errorf("in-flight load done at %d, want the fill time %d", mergeDone, coldDone)
	}
	// Warm load after the fill completes: L1D hit.
	warmDone := h.Load(0x10000, 300)
	if warmDone != 300+cfg.L1DLatency {
		t.Errorf("warm load done at %d, want %d", warmDone, 300+cfg.L1DLatency)
	}
	// L2 hit: evict from L1D by conflict, keep in L2.
	l1dSets := h.L1D().Sets()
	stride := uint64(l1dSets * 64)
	h.Load(0x10000+stride, 400)
	h.Load(0x10000+2*stride, 600)
	l2Done := h.Load(0x10000, 800) // 0x10000 was LRU-evicted by the two conflicting lines: L1D miss, L2 hit
	if l2Done != 800+cfg.L1DLatency+cfg.L2Latency {
		t.Errorf("L2-hit load done at %d, want %d", l2Done, 800+cfg.L1DLatency+cfg.L2Latency)
	}
}

func TestHierarchyBankContention(t *testing.T) {
	cfg := DefaultConfig()
	h := MustHierarchy(cfg)
	// Two same-cycle L2 accesses to the same bank: the second must be pushed
	// back by the bank busy time. Use L1D-missing, L2-hitting lines.
	warm := func(addr uint64) { h.Load(addr, 0) } // install in L2 (and L1D)
	a := uint64(1 << 20)
	b := a + uint64(cfg.L2Banks*cfg.L2.LineBytes)*7 // same L2 bank as a
	warm(a)
	warm(b)
	// Evict both from tiny L1D with conflicting lines.
	stride := uint64(h.L1D().Sets() * 64)
	for i := 1; i <= 4; i++ {
		h.Load(a+uint64(i)*stride, 1000)
		h.Load(b+uint64(i)*stride, 1000)
	}
	t0 := int64(5000)
	d1 := h.Load(a, t0)
	d2 := h.Load(b, t0)
	if d2 <= d1 {
		t.Errorf("no bank contention: %d then %d", d1, d2)
	}
	if d2-d1 != cfg.L2BankBusy {
		t.Errorf("contention delay %d, want %d", d2-d1, cfg.L2BankBusy)
	}
}

func TestFetchUsesICache(t *testing.T) {
	cfg := DefaultConfig()
	h := MustHierarchy(cfg)
	cold := h.Fetch(0, 0)
	if cold <= cfg.L1ILatency {
		t.Errorf("cold fetch latency %d too small", cold)
	}
	warm := h.Fetch(0, 1000)
	if warm != 1000+cfg.L1ILatency {
		t.Errorf("warm fetch done at %d", warm)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := MustHierarchy(DefaultConfig())
	h.Load(0, 0)
	h.Reset()
	if h.L1D().Stats().Accesses() != 0 {
		t.Error("reset did not clear stats")
	}
	cold := h.Load(0, 0)
	cfg := DefaultConfig()
	if cold != cfg.L1DLatency+cfg.L2Latency+cfg.MemLatency {
		t.Errorf("post-reset load not cold: %d", cold)
	}
}
