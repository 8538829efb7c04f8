package core

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/bypass"
	"repro/internal/emu"
	"repro/internal/machine"
)

// The §5.1 scheduler properties, checked on the core's own dispatch,
// select and wakeup code: pairs of consecutive instructions are steered to
// the schedulers round-robin, each scheduler selects at most two ready
// entries per cycle oldest-first, and a value crossing a cluster boundary
// arrives InterClusterDelay cycles late.

// TestSteeringRoundRobinPairs dispatches eleven instructions on the 8-wide
// machine (4 schedulers, §5.1: "groups of two consecutive instructions were
// steered to each scheduler in a round robin manner") and reads back the
// scheduler each one landed in.
func TestSteeringRoundRobinPairs(t *testing.T) {
	p, err := asm.Assemble(repeatBody("addq r31, #1, r1", 10) + "halt\n")
	if err != nil {
		t.Fatal(err)
	}
	trace := mustTrace(t, p)
	cfg := machine.NewRBFull(8)
	s, err := New(cfg, "steer", trace, Options{Backend: BackendPoll})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := int64(0); s.nextFetch < s.n || s.fqLen > 0; cycle++ {
		if cycle > 1000 {
			t.Fatal("front end never dispatched the trace")
		}
		s.fetch(cycle)
		s.dispatch(cycle)
	}
	got := make([]int, len(trace))
	for si := range s.scheds {
		for id := s.scheds[si].head; id != nilID; id = s.pool[id].next {
			got[s.pool[id].idx] = si
		}
	}
	want := []int{0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("steering %v, want %v", got, want)
	}
}

// TestSelectTwoOldestReady checks select on completed runs of both
// backends: per scheduler and cycle at most SelectWidth (2) entries issue,
// every issued entry was ready, and an entry that was ready but waited lost
// only to SelectWidth older entries of its scheduler. Readiness is the poll
// backend's ready() evaluated after the run, which is exact: a producer
// that had not executed by a cycle has a later completion time, so its
// value reads as unavailable then.
func TestSelectTwoOldestReady(t *testing.T) {
	trace := mixedProgram(t)
	for _, cfg := range []machine.Config{machine.NewRBLimited(8), machine.NewRBFull(4), machine.NewBaseline(8)} {
		for _, be := range []Backend{BackendEvent, BackendPoll} {
			stages := make([]StageRecord, len(trace))
			s, err := New(cfg, "select", trace, Options{Backend: be, Stages: stages})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Simulate(); err != nil {
				t.Fatal(err)
			}
			type slot struct {
				sched int
				cycle int64
			}
			// Without wrong-path fetch every dispatch is a trace entry, in
			// order, so entry i went to scheduler i/2 round-robin
			// (TestSteeringRoundRobinPairs).
			schedOf := func(i int) int { return i / 2 % cfg.NumSchedulers }
			granted := map[slot][]int{}
			for i, st := range stages {
				if s.dispCluster[i] != s.clusterOf(schedOf(i)) {
					t.Fatalf("%s/%s: entry %d in cluster %d, want scheduler %d's", cfg.Name, be, i, s.dispCluster[i], schedOf(i))
				}
				k := slot{schedOf(i), st.Issue}
				granted[k] = append(granted[k], i)
				if len(granted[k]) > cfg.SelectWidth {
					t.Fatalf("%s/%s: scheduler %d issued %v in cycle %d", cfg.Name, be, k.sched, granted[k], k.cycle)
				}
			}
			for i, st := range stages {
				u := uop{
					op:      s.dec.ops[i],
					dep:     s.dec.deps[i],
					cluster: s.clusterOf(schedOf(i)),
					minExe:  st.Dispatch + cfg.IssueToExecute,
				}
				if !cfg.MemoryDependence {
					u.dep[depMem] = -1
				}
				if !s.ready(&u, st.Issue) {
					t.Fatalf("%s/%s: entry %d issued in cycle %d before it was ready", cfg.Name, be, i, st.Issue)
				}
				for c := u.minExe; c < st.Issue; c++ {
					if !s.ready(&u, c) {
						continue
					}
					g := granted[slot{schedOf(i), c}]
					if len(g) < cfg.SelectWidth || g[len(g)-1] > i {
						t.Fatalf("%s/%s: entry %d was ready in cycle %d but scheduler %d issued %v",
							cfg.Name, be, i, c, schedOf(i), g)
					}
				}
			}
		}
	}
}

// TestCrossClusterWakeup places a producer and its consumer in different
// clusters of the 8-wide machine (schedulers 0 and 2: the third steered
// pair lands in the second cluster) and checks the core's wakeup against
// the producer's schedule shifted by the 1-cycle inter-cluster delay, for
// full bypass and for a schedule with holes. The closed form the event
// backend and the bypass accounting use, p.t + delay + NextAvailable(1),
// must name the first cycle the poll check accepts.
func TestCrossClusterWakeup(t *testing.T) {
	cfg := machine.NewRBFull(8)
	s, err := New(cfg, "cluster", make([]emu.TraceEntry, 2), Options{Backend: BackendPoll})
	if err != nil {
		t.Fatal(err)
	}
	if s.clusterOf(0) == s.clusterOf(2) || cfg.InterClusterDelay != 1 {
		t.Fatalf("want schedulers 0 and 2 in different clusters, 1 cycle apart; got clusters %d, %d, delay %d",
			s.clusterOf(0), s.clusterOf(2), cfg.InterClusterDelay)
	}
	const produced = 10
	for _, tc := range []struct {
		name  string
		sched bypass.Schedule
		avail map[int64]bool // by offset from the producer's final EXE cycle
	}{
		{"full", bypass.FromConfig(bypass.Full(), bypass.RFOffset), map[int64]bool{1: false, 2: true, 3: true}},
		{"holey", bypass.Schedule{LevelMask: 1 << 1, RFFrom: 4}, map[int64]bool{1: false, 2: true, 3: false, 4: false, 5: true}},
	} {
		s.resultSched[0][0] = tc.sched
		s.prod[0] = prodRecord{t: produced, cluster: s.clusterOf(0)}
		u := uop{op: 1 << opNsrcShift, dep: [4]int32{0, -1, -1, -1}, cluster: s.clusterOf(2)}
		for off, want := range tc.avail {
			if got := s.ready(&u, produced+off); got != want {
				t.Errorf("%s: cross-cluster value available at offset %d = %v, want %v", tc.name, off, got, want)
			}
		}
		delay := cfg.InterClusterDelay
		if got, want := s.earliestReadyFrom(&u, produced+1), produced+delay+tc.sched.NextAvailable(1); got != want {
			t.Errorf("%s: earliest cross-cluster wakeup %d, want %d", tc.name, got, want)
		}
		u.cluster = s.clusterOf(0)
		if !s.ready(&u, produced+tc.sched.NextAvailable(1)) {
			t.Errorf("%s: same-cluster value not available at its first schedule offset", tc.name)
		}
	}
}
