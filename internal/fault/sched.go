package fault

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/machine"
)

// The scheduler campaign: drop sampled calendar wakeup posts from
// event-backend runs of the campaign program and measure the watchdog's
// detection and recovery. Drop ordinals are sampled from a fault-free dry
// run's post count, so the sample is a pure function of the seed.

// SchedReport is the dropped-wakeup sweep summary.
type SchedReport struct {
	// Window is the watchdog's no-progress window in cycles.
	Window int64
	// Drops is the sampled drop count; Injected how many ordinals the runs
	// actually reached; Detected/Recovered the watchdog's score.
	Drops, Injected, Detected, Recovered int
	// MeanLatency / MaxLatency are detection latencies in cycles (from the
	// cycle the wakeup would have fired to the watchdog firing).
	MeanLatency float64
	MaxLatency  int64
}

// schedWatchdogWindow keeps campaign stalls cheap: the event backend skips
// the dead cycles in one step, so a small window costs nothing in wall time
// while still modeling a realistic detection bound.
const schedWatchdogWindow = 2000

func runSched(opts Options, trace []emu.TraceEntry) (SchedReport, error) {
	rep := SchedReport{Window: schedWatchdogWindow}
	cfg := machine.NewRBFull(4)

	// Dry run: count the wakeup posts a healthy run makes.
	dry, err := core.New(cfg, "fault-campaign", trace, core.Options{Backend: core.BackendEvent})
	if err != nil {
		return rep, err
	}
	if _, err := dry.Simulate(); err != nil {
		return rep, fmt.Errorf("fault: sched dry run: %w", err)
	}
	posts := dry.PostCount()
	if posts == 0 {
		return rep, fmt.Errorf("fault: sched dry run posted no wakeups")
	}

	drops := 4
	if opts.Full {
		drops = 10
	}
	rnd := opts.rng(400)
	var latSum int64
	for i := 0; i < drops; i++ {
		// Midpoint of the i-th stratum, jittered within it.
		stratum := posts / int64(drops)
		ordinal := int64(i)*stratum + rnd.Int63n(maxI64(stratum, 1))
		rep.Drops++

		s, err := core.New(cfg, "fault-campaign", trace, core.Options{Backend: core.BackendEvent})
		if err != nil {
			return rep, err
		}
		out := s.ArmFaults(core.FaultPlan{
			Faults:         []core.Fault{{Kind: core.FaultDropWakeup, PostIndex: ordinal}},
			WatchdogWindow: schedWatchdogWindow,
		})
		r, err := s.Simulate()
		if err != nil {
			return rep, fmt.Errorf("fault: dropped wakeup %d not recovered: %w", ordinal, err)
		}
		det := out.Detections[0]
		if !det.Injected {
			continue
		}
		rep.Injected++
		if det.Detector == "watchdog" {
			rep.Detected++
			lat := det.Latency()
			latSum += lat
			if lat > rep.MaxLatency {
				rep.MaxLatency = lat
			}
		}
		if det.Recovered && r.WatchdogRecoveries > 0 {
			rep.Recovered++
		}
	}
	if rep.Detected > 0 {
		rep.MeanLatency = float64(latSum) / float64(rep.Detected)
	}
	return rep, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
