package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// The datapath campaign: inject RB digit flips and stale-bypass
// substitutions on every result-producing instruction of a seeded synthetic
// program, and measure what the converter-path residue check and the
// commit-time value compare catch, and how fast (cycles from the corrupted
// value's production to its detection at commit).

// DatapathReport is one fault model's sweep summary.
type DatapathReport struct {
	Model string
	// Targets is the number of faults armed; Injected how many found a
	// result to corrupt; Masked how many corrupted it into an identical
	// value (stale == correct).
	Targets, Injected, Masked int
	// Residue and Oracle count detections by detector.
	Residue, Oracle int
	// Recovered counts detections that committed the correct value anyway.
	Recovered int
	// MeanLatency / MaxLatency are detection latencies in cycles over the
	// detected faults.
	MeanLatency float64
	MaxLatency  int64
	// FalseNegatives lists the dynamic instruction numbers of unmasked,
	// undetected faults (must be empty for digit flips).
	FalseNegatives []int64
}

// Coverage is detections over unmasked injections.
func (r DatapathReport) Coverage() float64 {
	live := r.Injected - r.Masked
	if live == 0 {
		return 1
	}
	return float64(r.Residue+r.Oracle) / float64(live)
}

// injectProgram builds the seeded straight-line target program: a dense mix
// of dependent adds and subtracts over a small register set with varied
// immediates, every instruction result-producing, no branches (so scheduler
// post ordinals are stable and no wrong-path machinery interferes).
func injectProgram(n int, rnd *rand.Rand) *isa.Program {
	regs := []isa.Reg{1, 2, 3, 4, 5, 6}
	insts := make([]isa.Instruction, 0, n+len(regs)+1)
	for _, r := range regs {
		insts = append(insts, isa.Instruction{
			Op: isa.LDA, Ra: r, Rb: isa.RZero, Imm: int64(rnd.Intn(4096)),
		})
	}
	for i := 0; i < n; i++ {
		op := isa.ADDQ
		if rnd.Intn(2) == 1 {
			op = isa.SUBQ
		}
		ra := regs[rnd.Intn(len(regs))]
		rc := regs[rnd.Intn(len(regs))]
		if rnd.Intn(2) == 1 {
			insts = append(insts, isa.Instruction{
				Op: op, Ra: ra, Rc: rc, Imm: int64(rnd.Intn(256)), UseImm: true,
			})
		} else {
			rb := regs[rnd.Intn(len(regs))]
			insts = append(insts, isa.Instruction{Op: op, Ra: ra, Rb: rb, Rc: rc})
		}
	}
	insts = append(insts, isa.Instruction{Op: isa.HALT})
	return &isa.Program{Insts: insts}
}

// campaignProgram is the campaign's seeded injection program.
func campaignProgram(opts Options) *isa.Program {
	n := 150
	if opts.Full {
		n = 500
	}
	return injectProgram(n, opts.rng(200))
}

// campaignDecode streams the injection program into its timing trace.
func campaignDecode(prog *isa.Program) (*core.Decoded, error) {
	var d core.Decoder
	if _, err := emu.New(prog).Run(1<<20, func(te emu.TraceEntry) { d.Add(&te) }); err != nil {
		return nil, err
	}
	return d.Decoded()
}

// runFaultSet arms the faults on a fresh simulator over dec, whose
// commit-time check steps a reference emulator of prog for the faults'
// golden values, and folds the detections into rep.
func runFaultSet(cfg machine.Config, prog *isa.Program, dec *core.Decoded, faults []core.Fault, rep *DatapathReport) error {
	s, err := core.New(cfg, "fault-campaign", dec, core.Options{Oracle: emu.New(prog), Faults: &core.FaultPlan{Faults: faults}})
	if err != nil {
		return err
	}
	out := s.Faults()
	if _, err := s.Simulate(); err != nil {
		return fmt.Errorf("fault: datapath campaign run: %w", err)
	}
	var latSum, latN int64
	for _, det := range out.Detections {
		rep.Targets++
		if !det.Injected {
			continue
		}
		rep.Injected++
		if det.Masked {
			rep.Masked++
			continue
		}
		switch det.Detector {
		case "residue":
			rep.Residue++
		case "oracle":
			rep.Oracle++
		default:
			rep.FalseNegatives = append(rep.FalseNegatives, det.Fault.Seq)
			continue
		}
		if det.Recovered {
			rep.Recovered++
		}
		lat := det.Latency()
		latSum += lat
		latN++
		if lat > rep.MaxLatency {
			rep.MaxLatency = lat
		}
	}
	if latN > 0 {
		// Running mean across fault sets, weighted by detections.
		prevN := float64(rep.Residue+rep.Oracle) - float64(latN)
		rep.MeanLatency = (rep.MeanLatency*prevN + float64(latSum)) / (prevN + float64(latN))
	}
	return nil
}

// runDatapath sweeps both datapath fault models over the campaign program.
// It is straight-line code, so dynamic instruction i is instruction i.
func runDatapath(opts Options, prog *isa.Program, dec *core.Decoded) ([]DatapathReport, error) {
	cfg := machine.NewRBFull(4)
	var targets []int64 // the result-producing instructions
	for i, in := range prog.Insts {
		if _, ok := in.Dest(); ok {
			targets = append(targets, int64(i))
		}
	}

	// Digit flips: every result-producing instruction, one seeded digit per
	// run; the full sweep repeats with fresh digits.
	flips := &DatapathReport{Model: "digit-flip"}
	runs := 1
	if opts.Full {
		runs = 3
	}
	for run := 0; run < runs; run++ {
		rnd := opts.rng(300 + int64(run))
		var faults []core.Fault
		for _, seq := range targets {
			faults = append(faults, core.Fault{Kind: core.FaultDigitFlip, Seq: seq, Digit: rnd.Intn(64)})
		}
		if err := runFaultSet(cfg, prog, dec, faults, flips); err != nil {
			return nil, err
		}
	}

	// Stale bypass: every result-producing instruction once.
	stale := &DatapathReport{Model: "stale-bypass"}
	var faults []core.Fault
	for _, seq := range targets {
		faults = append(faults, core.Fault{Kind: core.FaultStaleBypass, Seq: seq})
	}
	if err := runFaultSet(cfg, prog, dec, faults, stale); err != nil {
		return nil, err
	}

	return []DatapathReport{*flips, *stale}, nil
}
