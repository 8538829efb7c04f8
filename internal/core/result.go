package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// BypassCase enumerates the four forwarding cases of §5.2 (Figure 13),
// classified by the producing instruction's output format and the consuming
// operand's requirement.
type BypassCase uint8

const (
	// TCtoTC: a 2's complement result forwarded to a 2's complement operand.
	TCtoTC BypassCase = iota
	// TCtoRB: a 2's complement result forwarded to an RB-capable operand.
	TCtoRB
	// RBtoRB: a redundant binary result forwarded to an RB-capable operand.
	RBtoRB
	// RBtoTC: a redundant binary result forwarded to an operand requiring
	// 2's complement — the only case paying a format conversion.
	RBtoTC
	// NumBypassCases is the case count.
	NumBypassCases
)

// String names the forwarding case ("RB->TC" etc.).
func (c BypassCase) String() string {
	switch c {
	case TCtoTC:
		return "TC->TC"
	case TCtoRB:
		return "TC->RB"
	case RBtoRB:
		return "RB->RB"
	case RBtoTC:
		return "RB->TC"
	}
	return "?"
}

// Result collects everything one simulation run measures.
type Result struct {
	// Machine is the configuration name.
	Machine string
	// Workload is the program name (set by the caller).
	Workload string

	// Cycles is the total execution time; Instructions the retired count.
	Cycles       int64
	Instructions int64

	// Branch statistics (conditional and indirect branches that consulted
	// the predictor).
	Branches          int64
	BranchMispredicts int64

	// LastArriving[c] counts issued instructions whose last-arriving source
	// operand was obtained from a bypass path of case c (Figure 13).
	LastArriving [NumBypassCases]int64
	// BypassedInstructions counts issued instructions with at least one
	// source obtained from a bypass path (the bar-top number of Figure 13).
	BypassedInstructions int64
	// ConversionDelayed counts issued instructions whose last-arriving
	// bypassed source required an RB->TC conversion.
	ConversionDelayed int64

	// Source-locality breakdown of §5.2's limited-bypass discussion:
	// instructions whose sources all came from the register file (or had no
	// sources), whose latest bypassed source used the first-level bypass,
	// or used another bypass level.
	SrcNoBypass, SrcLevel1, SrcOtherLevel int64

	// Table1Counts is the dynamic instruction mix by Table 1 row.
	Table1Counts [isa.NumTable1Rows]int64

	// Cache statistics.
	L1I, L1D, L2 mem.CacheStats

	// DatapathChecked counts results recomputed through the redundant
	// binary datapath and verified against the functional trace (the
	// commit-time check, Options.Oracle, only).
	DatapathChecked int64

	// WrongPathIssued counts wrong-path instructions that reached execution
	// before being squashed; WrongPathLoads counts those that accessed (and
	// polluted) the data cache (Options.WrongPath only).
	WrongPathIssued int64
	WrongPathLoads  int64

	// OccupancySum accumulates the in-flight instruction count per cycle;
	// AvgOccupancy derives the mean window occupancy.
	OccupancySum int64

	// WatchdogRecoveries counts lost-wakeup stalls the no-progress watchdog
	// recovered from by re-posting abandoned entries (always 0 in a
	// fault-free run on either backend).
	WatchdogRecoveries int64
}

// AvgOccupancy is the mean number of in-flight (dispatched, unretired)
// instructions per cycle.
func (r *Result) AvgOccupancy() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.OccupancySum) / float64(r.Cycles)
}

// IPC is retired instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MispredictRate is mispredictions per predicted branch.
func (r *Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.BranchMispredicts) / float64(r.Branches)
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %d insts, %d cycles, IPC %.3f, mispredict %.2f%%",
		r.Machine, r.Workload, r.Instructions, r.Cycles, r.IPC(), 100*r.MispredictRate())
}
