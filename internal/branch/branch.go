// Package branch implements the front-end branch prediction hardware of the
// paper's machine model (Table 2): a 48KB hybrid predictor combining gshare
// and a per-address (PAs) two-level predictor under a chooser, a 4096-entry
// branch target buffer, and a return address stack for subroutine returns.
package branch

// Budget breakdown (bits), sized to the paper's 48KB total:
//
//	gshare:  2^16 x 2-bit counters            = 16 KB
//	PAs:     4096 x 14-bit local histories    =  7 KB
//	         2^14 x 2-bit pattern counters    =  4 KB
//	chooser: 2^16 x 2-bit counters            = 16 KB
//
// plus the 4096-entry BTB. The exact split is not given in the paper; this
// one follows the usual gshare/PAs hybrid construction (McFarling).
const (
	gshareBits      = 16
	gshareSize      = 1 << gshareBits
	localHistBits   = 14
	localTableSize  = 4096
	patternSize     = 1 << localHistBits
	chooserBits     = 16
	chooserSize     = 1 << chooserBits
	btbEntries      = 4096
	btbWays         = 4
	btbSets         = btbEntries / btbWays
	rasDepth        = 16
	counterMax      = 3 // saturating 2-bit counters
	counterTakenMin = 2 // counter values >= this predict taken
)

// Predictor is the full front-end prediction unit. The zero value is not
// usable; call New.
type Predictor struct {
	gshare  []uint8
	chooser []uint8
	localH  []uint16
	pattern []uint8
	history uint64 // global branch history register

	btbTag   [][btbWays]uint32
	btbTgt   [][btbWays]int32
	btbLRU   [][btbWays]uint8
	btbValid [][btbWays]bool

	ras    [rasDepth]int
	rasTop int
	rasLen int
}

// Counter-table prototypes, filled once: New copies them in rather than
// byte-filling ~150KB per predictor, which matters to callers that build
// simulators in a loop (the fault campaign constructs one per injection).
var (
	gshareProto  = fillBytes(gshareSize, 1)  // weakly not-taken
	patternProto = fillBytes(patternSize, 1) // weakly not-taken
	chooserProto = fillBytes(chooserSize, 2) // no initial preference; >=2 selects gshare
)

func fillBytes(n int, v uint8) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// New builds a predictor with all counters weakly not-taken.
func New() *Predictor {
	p := &Predictor{
		gshare:  append([]uint8(nil), gshareProto...),
		chooser: append([]uint8(nil), chooserProto...),
		localH:  make([]uint16, localTableSize),
		pattern: append([]uint8(nil), patternProto...),
	}
	p.btbTag = make([][btbWays]uint32, btbSets)
	p.btbTgt = make([][btbWays]int32, btbSets)
	p.btbLRU = make([][btbWays]uint8, btbSets)
	p.btbValid = make([][btbWays]bool, btbSets)
	return p
}

func (p *Predictor) gshareIndex(pc int) int {
	return int((uint64(pc) ^ p.history) & (gshareSize - 1))
}

func (p *Predictor) localIndex(pc int) int { return pc & (localTableSize - 1) }

// predictDirection predicts a conditional branch at pc. It does not update
// any state; call updateDirection with the outcome afterwards.
func (p *Predictor) predictDirection(pc int) bool {
	g := p.gshare[p.gshareIndex(pc)] >= counterTakenMin
	hist := p.localH[p.localIndex(pc)] & (patternSize - 1)
	l := p.pattern[hist] >= counterTakenMin
	if p.chooser[int(uint64(pc))&(chooserSize-1)] >= counterTakenMin {
		return g
	}
	return l
}

// updateDirection trains the predictor with the resolved outcome of a
// conditional branch at pc, and returns the direction predictDirection
// would have given before the update.
func (p *Predictor) updateDirection(pc int, taken bool) (pred bool) {
	gi := p.gshareIndex(pc)
	li := p.localIndex(pc)
	hist := p.localH[li] & (patternSize - 1)

	gPred := p.gshare[gi] >= counterTakenMin
	lPred := p.pattern[hist] >= counterTakenMin
	pred = gPred

	// Chooser trains toward whichever component was right, only when they
	// disagree (McFarling's rule); only then does its choice matter.
	if gPred != lPred {
		ci := int(uint64(pc)) & (chooserSize - 1)
		if p.chooser[ci] < counterTakenMin {
			pred = lPred
		}
		if gPred == taken {
			p.chooser[ci] = satInc(p.chooser[ci])
		} else {
			p.chooser[ci] = satDec(p.chooser[ci])
		}
	}
	if taken {
		p.gshare[gi] = satInc(p.gshare[gi])
		p.pattern[hist] = satInc(p.pattern[hist])
	} else {
		p.gshare[gi] = satDec(p.gshare[gi])
		p.pattern[hist] = satDec(p.pattern[hist])
	}
	p.localH[li] = p.localH[li]<<1 | b2u16(taken)
	p.history = p.history<<1 | b2u64(taken)
	return pred
}

func satInc(c uint8) uint8 {
	if c < counterMax {
		return c + 1
	}
	return c
}

func satDec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

func b2u16(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// predictTarget looks up the BTB for the target of a taken branch at pc.
func (p *Predictor) predictTarget(pc int) (target int, hit bool) {
	set := pc & (btbSets - 1)
	tag := uint32(pc / btbSets)
	for w := 0; w < btbWays; w++ {
		if p.btbValid[set][w] && p.btbTag[set][w] == tag {
			p.btbLRU[set][w] = 0
			for o := 0; o < btbWays; o++ {
				if o != w {
					p.btbLRU[set][o]++
				}
			}
			return int(p.btbTgt[set][w]), true
		}
	}
	return 0, false
}

// updateTarget installs or refreshes the target of a taken branch.
func (p *Predictor) updateTarget(pc, target int) {
	set := pc & (btbSets - 1)
	tag := uint32(pc / btbSets)
	victim := 0
	for w := 0; w < btbWays; w++ {
		if p.btbValid[set][w] && p.btbTag[set][w] == tag {
			victim = w
			break
		}
		if !p.btbValid[set][w] {
			victim = w
			break
		}
		if p.btbLRU[set][w] > p.btbLRU[set][victim] {
			victim = w
		}
	}
	p.btbValid[set][victim] = true
	p.btbTag[set][victim] = tag
	p.btbTgt[set][victim] = int32(target)
	p.btbLRU[set][victim] = 0
	for o := 0; o < btbWays; o++ {
		if o != victim {
			p.btbLRU[set][o]++
		}
	}
}

// pushReturn records a return address on the return address stack (on
// BSR/JSR).
func (p *Predictor) pushReturn(addr int) {
	p.rasTop = (p.rasTop + 1) % rasDepth
	p.ras[p.rasTop] = addr
	if p.rasLen < rasDepth {
		p.rasLen++
	}
}

// popReturn predicts the target of a RET. It reports a miss when the stack
// is empty.
func (p *Predictor) popReturn() (addr int, ok bool) {
	if p.rasLen == 0 {
		return 0, false
	}
	addr = p.ras[p.rasTop]
	p.rasTop = (p.rasTop - 1 + rasDepth) % rasDepth
	p.rasLen--
	return addr, true
}
