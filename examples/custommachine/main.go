// Custom-machine demo: building your own execution-core configuration with
// the public knobs — window size, scheduler partitioning, latency tables,
// converter depth, cache hierarchy — and running a workload end to end with
// the redundant binary datapath verified against the golden model.
//
// Run: go run ./examples/custommachine
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

func main() {
	w, _ := workload.ByName("twolf")
	dec, err := w.Decoded()
	if err != nil {
		log.Fatal(err)
	}

	run := func(cfg machine.Config) *core.Result {
		r, err := core.Run(cfg, w.Name, dec, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	// Start from the paper's RB-full machine.
	base := machine.NewRBFull(8)
	fmt.Printf("stock %-22s IPC %.3f\n", base.Name, run(base).IPC())

	// Variant 1: a deeper converter (3 cycles instead of 2) — how sensitive
	// is the RB advantage to conversion depth?
	deep := machine.NewRBFull(8)
	deep.Name = "RB-full-8/conv3"
	for _, cls := range []isa.LatencyClass{isa.LatIntArith, isa.LatIntCompare, isa.LatByteManip, isa.LatShiftLeft} {
		e := deep.Latencies[cls]
		e.TCExtra = 3
		deep.Latencies[cls] = e
	}
	fmt.Printf("3-cycle converter%8s IPC %.3f\n", "", run(deep).IPC())

	// Variant 2: a half-size window with one monolithic scheduler.
	small := machine.NewRBFull(8)
	small.Name = "RB-full-8/win64"
	small.WindowSize = 64
	small.SchedulerSize = 16
	if err := small.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("64-entry window%10s IPC %.3f\n", "", run(small).IPC())

	// Variant 3: a bigger data cache (32KB) — the paper's 8KB L1D is small
	// even by 2002 standards.
	bigD := machine.NewRBFull(8)
	bigD.Name = "RB-full-8/32KB-L1D"
	bigD.Mem.L1D.SizeBytes = 32 << 10
	fmt.Printf("32KB data cache%10s IPC %.3f\n", "", run(bigD).IPC())

	// Variant 4: no clustering penalty on the 8-wide machine.
	flat := machine.NewRBFull(8)
	flat.Name = "RB-full-8/no-cluster"
	flat.Clusters = 1
	flat.InterClusterDelay = 0
	fmt.Printf("single cluster%11s IPC %.3f\n", "", run(flat).IPC())

	// Full verification run: the commit-time check carries redundant binary
	// values through the datapath and replays every retired result on the
	// golden model in lockstep.
	prog, err := w.Program()
	if err != nil {
		log.Fatal(err)
	}
	r, err := core.Run(base, w.Name, dec, core.Options{Oracle: emu.New(prog)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndatapath verification: %d RB results checked against the golden model\n",
		r.DatapathChecked)
}
