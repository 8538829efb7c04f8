package mem

import (
	"fmt"
	"strconv"
)

// HierarchyConfig gathers the latency and contention parameters of Table 2.
// All latencies are in core cycles.
type HierarchyConfig struct {
	// L1I / L1D / L2 geometries.
	L1I, L1D, L2 CacheConfig
	// L1ILatency is the instruction cache directory+data access time.
	L1ILatency int64
	// L1DLatency is the data cache latency (Table 3 "dcache latency").
	L1DLatency int64
	// L2Latency is the unified L2 access time.
	L2Latency int64
	// L2Banks is the number of L2 banks contended for.
	L2Banks int
	// L2BankBusy is how long one access occupies a bank.
	L2BankBusy int64
	// MemLatency is the main memory access time.
	MemLatency int64
	// MemBanks is the number of memory banks contended for.
	MemBanks int
	// MemBankBusy is how long one access occupies a memory bank.
	MemBankBusy int64
}

// AppendKey appends a key naming every field of c, for caches that hold a
// product per hierarchy (the sampler's checkpoint libraries): two configs
// get the same key only if they are equal. A field added to HierarchyConfig
// or CacheConfig must be added here; TestAppendKeyCoversEveryField fails
// until it is.
func (c HierarchyConfig) AppendKey(dst []byte) []byte {
	dst = c.L1I.appendKey(dst)
	dst = c.L1D.appendKey(append(dst, ','))
	dst = c.L2.appendKey(append(dst, ','))
	for _, v := range [...]int64{
		c.L1ILatency, c.L1DLatency, c.L2Latency, int64(c.L2Banks), c.L2BankBusy,
		c.MemLatency, int64(c.MemBanks), c.MemBankBusy,
	} {
		dst = strconv.AppendInt(append(dst, ','), v, 10)
	}
	return dst
}

// appendKey appends "size/line/ways".
func (c CacheConfig) appendKey(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(c.SizeBytes), 10)
	dst = strconv.AppendInt(append(dst, '/'), int64(c.LineBytes), 10)
	return strconv.AppendInt(append(dst, '/'), int64(c.Ways), 10)
}

// DefaultConfig returns the paper's Table 2 configuration. The bank busy
// times are not given in the paper; they are set to half the access latency
// (pipelined banks), which is the conventional choice.
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4},
		L1D:         CacheConfig{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2},
		L2:          CacheConfig{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8},
		L1ILatency:  2,
		L1DLatency:  2,
		L2Latency:   8,
		L2Banks:     2,
		L2BankBusy:  4,
		MemLatency:  100,
		MemBanks:    32,
		MemBankBusy: 50,
	}
}

// Hierarchy is the timing model for the cache/memory system. Data values are
// supplied by the functional emulator; the hierarchy decides *when* they
// arrive. It is driven with monotonically nondecreasing cycle numbers per
// bank (out-of-order issue within a small window is tolerated because bank
// reservations only push later accesses back).
type Hierarchy struct {
	cfg HierarchyConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache

	l2BankFree  []int64
	memBankFree []int64

	// pendingD / pendingI track in-flight line fills (MSHR semantics): a
	// second access to a line whose fill is outstanding waits for the fill
	// rather than seeing an instant hit. Keyed by line address; entries are
	// pruned as they expire.
	pendingD map[uint64]int64
	pendingI map[uint64]int64

	// SAM decoders for the data cache: the conventional two-input decoder
	// and the modified three-input decoder for redundant binary bases.
	dec *Decoder
}

// Validate reports a configuration NewHierarchy cannot build or that
// would run time backwards: an invalid cache geometry, no L2 or memory
// bank, or a negative latency or bank busy time.
func (cfg *HierarchyConfig) Validate() error {
	for _, c := range [3]CacheConfig{cfg.L1I, cfg.L1D, cfg.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if cfg.L2Banks < 1 || cfg.MemBanks < 1 {
		return fmt.Errorf("mem: %d L2 banks and %d memory banks; want at least one of each", cfg.L2Banks, cfg.MemBanks)
	}
	if cfg.L2Banks > MaxBanks || cfg.MemBanks > MaxBanks {
		return errBankBounds
	}
	if cfg.L1ILatency < 0 || cfg.L1DLatency < 0 || cfg.L2Latency < 0 || cfg.MemLatency < 0 ||
		cfg.L2BankBusy < 0 || cfg.MemBankBusy < 0 {
		return fmt.Errorf("mem: negative latency or bank busy time in %+v", *cfg)
	}
	return nil
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1d := MustCache(cfg.L1D) // Validate checked every geometry
	return &Hierarchy{
		cfg:         cfg,
		l1i:         MustCache(cfg.L1I),
		l1d:         l1d,
		l2:          MustCache(cfg.L2),
		l2BankFree:  make([]int64, cfg.L2Banks),
		memBankFree: make([]int64, cfg.MemBanks),
		pendingD:    make(map[uint64]int64),
		pendingI:    make(map[uint64]int64),
		dec:         DecoderFor(l1d),
	}, nil
}

// MustHierarchy panics on configuration errors.
func MustHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// L1I, L1D and L2 expose the cache levels (for statistics).
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L1D returns the data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Decoder returns the data cache's SAM decoder.
func (h *Hierarchy) Decoder() *Decoder { return h.dec }

// l2Access charges an L2 access starting at cycle `when` and returns the
// cycle the L2 responds (hit) or the request is forwarded (miss handled by
// caller). Bank conflicts delay the start.
func (h *Hierarchy) l2Access(addr uint64, when int64, write bool) (done int64, hit bool) {
	bank := int(addr / uint64(h.cfg.L2.LineBytes) % uint64(h.cfg.L2Banks))
	start := when
	if h.l2BankFree[bank] > start {
		start = h.l2BankFree[bank]
	}
	h.l2BankFree[bank] = start + h.cfg.L2BankBusy
	hit, _ = h.l2.Access(addr, write)
	return start + h.cfg.L2Latency, hit
}

// memAccess charges a main-memory access starting at `when`.
func (h *Hierarchy) memAccess(addr uint64, when int64) int64 {
	bank := int(addr / uint64(h.cfg.L2.LineBytes) % uint64(h.cfg.MemBanks))
	start := when
	if h.memBankFree[bank] > start {
		start = h.memBankFree[bank]
	}
	h.memBankFree[bank] = start + h.cfg.MemBankBusy
	return start + h.cfg.MemLatency
}

// pendingFill consults and prunes the in-flight fill table for a line: if a
// fill is outstanding past `when`, the access completes at the fill time (an
// MSHR merge); expired entries are removed.
func pendingFill(pending map[uint64]int64, line uint64, when int64) (int64, bool) {
	done, ok := pending[line]
	if !ok {
		return 0, false
	}
	if done <= when {
		delete(pending, line)
		return 0, false
	}
	return done, true
}

// Load returns the cycle at which load data is available, for a load whose
// address is ready at cycle `when`. The L1D latency applies even on a hit
// (Table 3: dcache latency 2). A load to a line with an outstanding fill
// merges with it (MSHR behavior) instead of seeing an instant hit.
func (h *Hierarchy) Load(addr uint64, when int64) int64 {
	line := addr / uint64(h.cfg.L1D.LineBytes)
	hit, _ := h.l1d.Access(addr, false)
	if fill, inFlight := pendingFill(h.pendingD, line, when); inFlight {
		return maxI64(fill, when+h.cfg.L1DLatency)
	}
	if hit {
		return when + h.cfg.L1DLatency
	}
	done := h.fillFrom(addr, when)
	h.pendingD[line] = done
	return done
}

// Store performs the cache-state update for a store that commits at cycle
// `when`. Stores complete in the write buffer and do not stall the pipeline;
// the return value is when the line is owned (used only for bank pressure).
func (h *Hierarchy) Store(addr uint64, when int64) int64 {
	line := addr / uint64(h.cfg.L1D.LineBytes)
	hit, _ := h.l1d.Access(addr, true)
	if fill, inFlight := pendingFill(h.pendingD, line, when); inFlight {
		return maxI64(fill, when+h.cfg.L1DLatency)
	}
	if hit {
		return when + h.cfg.L1DLatency
	}
	done := h.fillFrom(addr, when)
	h.pendingD[line] = done
	return done
}

// fillFrom charges the L2 (and, on an L2 miss, memory) for a line fill whose
// L1 lookup started at `when`.
func (h *Hierarchy) fillFrom(addr uint64, when int64) int64 {
	l2done, l2hit := h.l2Access(addr, when+h.cfg.L1DLatency, false)
	if l2hit {
		return l2done
	}
	return h.memAccess(addr, l2done)
}

// Fetch returns the cycle at which an instruction fetch for the line holding
// pc completes, started at cycle `when`. pcBytes should be the byte address
// of the instruction (pc * 8 for this ISA's 8-byte encoding).
func (h *Hierarchy) Fetch(pcBytes uint64, when int64) int64 {
	line := pcBytes / uint64(h.cfg.L1I.LineBytes)
	hit, _ := h.l1i.Access(pcBytes, false)
	if fill, inFlight := pendingFill(h.pendingI, line, when); inFlight {
		return maxI64(fill, when+h.cfg.L1ILatency)
	}
	if hit {
		return when + h.cfg.L1ILatency
	}
	l2done, l2hit := h.l2Access(pcBytes, when+h.cfg.L1ILatency, false)
	if !l2hit {
		l2done = h.memAccess(pcBytes, l2done)
	}
	h.pendingI[line] = l2done
	return l2done
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Reset clears all cache contents and bank reservations.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
	for i := range h.l2BankFree {
		h.l2BankFree[i] = 0
	}
	for i := range h.memBankFree {
		h.memBankFree[i] = 0
	}
	clear(h.pendingD)
	clear(h.pendingI)
}
