package emu

import "sort"

// pageBits selects a 4KiB sparse page granularity.
const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse, byte-addressed, little-endian memory. Unwritten
// locations read as zero.
//
// Snapshot returns an immutable copy-on-write view: the snapshot and the
// live memory share page storage until the live memory writes a shared page,
// which is cloned at that point. This makes architectural checkpoints
// (internal/ckpt) O(pages touched) to capture and O(pages dirtied) to keep.
type Memory struct {
	pages map[uint64]*[pageSize]byte
	// ro marks pages shared with at least one snapshot; a write to one
	// clones it first (copy-on-write). nil until the first Snapshot, so the
	// common no-checkpoint path pays nothing.
	ro map[uint64]struct{}
	// lastKey/lastPage memoize the most recently resolved page so the
	// aligned fast paths of Read and Write skip the map lookup on the long
	// same-page runs real programs produce. lastPage is nil when invalid.
	lastKey  uint64
	lastPage *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	key := addr >> pageBits
	p := m.pages[key]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	return p
}

// readPage resolves the page holding addr for reading (nil if untouched),
// going through the one-entry memo.
func (m *Memory) readPage(addr uint64) *[pageSize]byte {
	key := addr >> pageBits
	if m.lastPage != nil && m.lastKey == key {
		return m.lastPage
	}
	p := m.pages[key]
	if p != nil {
		m.lastKey, m.lastPage = key, p
	}
	return p
}

// writePage resolves (creating and, if snapshot-shared, cloning) the page
// holding addr for writing.
func (m *Memory) writePage(addr uint64) *[pageSize]byte {
	key := addr >> pageBits
	p := m.pages[key]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[key] = p
	} else if m.ro != nil {
		if _, shared := m.ro[key]; shared {
			// Copy-on-write: the page belongs to a snapshot; clone before
			// the first post-snapshot store.
			cp := new([pageSize]byte)
			*cp = *p
			m.pages[key] = cp
			delete(m.ro, key)
			p = cp
		}
	}
	m.lastKey, m.lastPage = key, p
	return p
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.readPage(addr)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.writePage(addr)[addr&(pageSize-1)] = v
}

// Read reads size bytes (1..8) little-endian.
func (m *Memory) Read(addr uint64, size int) uint64 {
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := m.readPage(addr)
		if p == nil {
			return 0
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(p[off+uint64(i)])
		}
		return v
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write writes size bytes (1..8) little-endian.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := m.writePage(addr)
		for i := 0; i < size; i++ {
			p[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// FootprintBytes reports how many pages have been touched, in bytes.
func (m *Memory) FootprintBytes() int { return len(m.pages) * pageSize }

// MemSnapshot is an immutable view of a Memory at one point in time. Its
// pages may be shared with live memories (the one it was captured from and
// any built by NewMemory), which copy-on-write before diverging; the
// snapshot itself never changes.
type MemSnapshot struct {
	pages map[uint64]*[pageSize]byte
}

// Snapshot captures the current contents. The live memory keeps running;
// pages it subsequently writes are cloned, leaving the snapshot intact.
func (m *Memory) Snapshot() *MemSnapshot {
	if m.ro == nil {
		m.ro = make(map[uint64]struct{}, len(m.pages))
	}
	pages := make(map[uint64]*[pageSize]byte, len(m.pages))
	for k, p := range m.pages {
		pages[k] = p
		m.ro[k] = struct{}{}
	}
	return &MemSnapshot{pages: pages}
}

// NewMemory builds a live memory initialized to the snapshot's contents.
// Page storage is shared until written (copy-on-write), so restoring a
// checkpoint does not copy the footprint.
func (s *MemSnapshot) NewMemory() *Memory {
	m := &Memory{
		pages: make(map[uint64]*[pageSize]byte, len(s.pages)),
		ro:    make(map[uint64]struct{}, len(s.pages)),
	}
	for k, p := range s.pages {
		m.pages[k] = p
		m.ro[k] = struct{}{}
	}
	return m
}

// PageSize is the snapshot page granularity in bytes.
const PageSize = pageSize

// Pages returns the snapshot's page numbers in ascending order (the
// deterministic iteration order the checkpoint encoder needs).
func (s *MemSnapshot) Pages() []uint64 {
	keys := make([]uint64, 0, len(s.pages))
	for k := range s.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Page returns the 4KiB contents of page number key (addr >> 12). The
// returned array is shared: callers must not modify it.
func (s *MemSnapshot) Page(key uint64) *[PageSize]byte { return s.pages[key] }

// AddPage installs page contents under page number key (checkpoint decode).
// The array is adopted, not copied.
func (s *MemSnapshot) AddPage(key uint64, p *[PageSize]byte) {
	if s.pages == nil {
		s.pages = make(map[uint64]*[pageSize]byte)
	}
	s.pages[key] = p
}

// NumPages is the number of touched pages.
func (s *MemSnapshot) NumPages() int { return len(s.pages) }

// Equal reports whether two memories hold identical contents. Pages touched
// in only one memory compare against all-zero, so two memories that read the
// same everywhere are equal regardless of which pages were instantiated.
// Used by the differential verification suite to compare final machine
// states of independent runs.
func (m *Memory) Equal(o *Memory) bool {
	var zero [pageSize]byte
	for key, p := range m.pages {
		q := o.pages[key]
		if q == nil {
			if *p != zero {
				return false
			}
			continue
		}
		if *p != *q {
			return false
		}
	}
	for key, q := range o.pages {
		if m.pages[key] == nil && *q != zero {
			return false
		}
	}
	return true
}
