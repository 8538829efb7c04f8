// Package pipeview renders cycle-by-cycle pipeline diagrams in the style of
// the paper's Figures 5 and 7: one row per instruction, one column per
// cycle, with RF (register read), EX (execute), CV (format conversion), and
// WB (write-back) stage labels. It consumes the stage timing captured by
// core.Options.Stages and the machine's latency table, making the paper's
// illustrative diagrams reproducible artifacts of the simulator itself.
package pipeview

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// Render writes a pipeline diagram for trace entries [from, to) relative to
// the earliest rendered register-read cycle. Instructions that never issued
// are skipped.
func Render(w io.Writer, cfg machine.Config, trace []emu.TraceEntry, stages []core.StageRecord, from, to int) error {
	if from < 0 || to > len(trace) || from >= to {
		return fmt.Errorf("pipeview: bad range [%d, %d) over %d entries", from, to, len(trace))
	}
	if len(stages) != len(trace) {
		return fmt.Errorf("pipeview: %d stage records for %d trace entries", len(stages), len(trace))
	}
	type row struct {
		label string
		cells map[int64]string
		last  int64
	}
	var rows []row
	base := int64(-1)
	rfRead := cfg.IssueToExecute - 1 // register-read stages before execution
	for i := from; i < to; i++ {
		st := stages[i]
		if st.Issue < 0 {
			continue
		}
		cells := map[int64]string{}
		for k := int64(0); k < rfRead; k++ {
			cells[st.Issue-rfRead+k] = "RF"
		}
		lat := cfg.Latency(isa.ClassOf(trace[i].Inst.Op).Latency)
		exeEnd := st.Issue + lat.Exec - 1
		for c := st.Issue; c <= exeEnd && c <= st.Done; c++ {
			cells[c] = "EX"
		}
		// Memory time beyond the nominal execute latency (cache access).
		for c := exeEnd + 1; c <= st.Done; c++ {
			cells[c] = "MM"
		}
		// Format conversion stages for RB-output results on RB machines.
		if cfg.Kind.IsRB() && isa.ClassOf(trace[i].Inst.Op).Out == isa.FormatRB && lat.TCExtra > 0 {
			for k := int64(1); k <= lat.TCExtra; k++ {
				cells[st.Done+k] = fmt.Sprintf("C%d", k)
			}
		}
		last := int64(0)
		for c := range cells {
			if c > last {
				last = c
			}
		}
		cells[last+1] = "WB"
		last++
		first := st.Issue - rfRead
		if base < 0 || first < base {
			base = first
		}
		rows = append(rows, row{label: trace[i].Inst.String(), cells: cells, last: last})
	}
	if len(rows) == 0 {
		return fmt.Errorf("pipeview: no issued instructions in range")
	}
	maxCycle := int64(0)
	labelW := 0
	for _, r := range rows {
		if r.last > maxCycle {
			maxCycle = r.last
		}
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	// Header.
	fmt.Fprintf(w, "%-*s |", labelW, "cycle")
	for c := base; c <= maxCycle; c++ {
		fmt.Fprintf(w, "%3d", c-base+1)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s-+%s\n", strings.Repeat("-", labelW), strings.Repeat("-", int(maxCycle-base+1)*3))
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s |", labelW, r.label)
		for c := base; c <= maxCycle; c++ {
			if s, ok := r.cells[c]; ok {
				fmt.Fprintf(w, "%3s", s)
			} else {
				fmt.Fprintf(w, "   ")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
