package branch

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New()
	pc := 100
	// The global history register changes the gshare index every update, so
	// train long enough for the history context to saturate and repeat.
	for i := 0; i < 40; i++ {
		p.updateDirection(pc, true)
	}
	if !p.predictDirection(pc) {
		t.Error("did not learn always-taken branch")
	}
}

func TestLearnsAlwaysNotTaken(t *testing.T) {
	p := New()
	pc := 200
	for i := 0; i < 40; i++ {
		p.updateDirection(pc, false)
	}
	if p.predictDirection(pc) {
		t.Error("did not learn never-taken branch")
	}
}

func TestLearnsAlternatingPatternViaLocalHistory(t *testing.T) {
	// A strict T/N alternation defeats a plain bimodal counter but is
	// perfectly predictable from local history; the hybrid must converge.
	p := New()
	pc := 300
	taken := false
	warmup := 200
	correct := 0
	total := 0
	for i := 0; i < 1000; i++ {
		pred := p.predictDirection(pc)
		if i >= warmup {
			total++
			if pred == taken {
				correct++
			}
		}
		p.updateDirection(pc, taken)
		taken = !taken
	}
	if rate := float64(correct) / float64(total); rate < 0.95 {
		t.Errorf("alternating pattern accuracy %.2f, want >= 0.95", rate)
	}
}

func TestLearnsLoopPattern(t *testing.T) {
	// A loop branch taken 7 times then not taken once (8-iteration loop):
	// local history should predict the exit.
	p := New()
	pc := 400
	correct, total := 0, 0
	for iter := 0; iter < 400; iter++ {
		for i := 0; i < 8; i++ {
			taken := i < 7
			pred := p.predictDirection(pc)
			if iter >= 50 {
				total++
				if pred == taken {
					correct++
				}
			}
			p.updateDirection(pc, taken)
		}
	}
	if rate := float64(correct) / float64(total); rate < 0.95 {
		t.Errorf("loop pattern accuracy %.2f, want >= 0.95", rate)
	}
}

func TestGlobalCorrelation(t *testing.T) {
	// Branch B is taken exactly when branch A was taken: gshare's global
	// history should capture it.
	p := New()
	r := rand.New(rand.NewSource(60))
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		a := r.Intn(2) == 0
		p.updateDirection(500, a)
		pred := p.predictDirection(504)
		if i >= 1000 {
			total++
			if pred == a {
				correct++
			}
		}
		p.updateDirection(504, a)
	}
	if rate := float64(correct) / float64(total); rate < 0.90 {
		t.Errorf("correlated branch accuracy %.2f, want >= 0.90", rate)
	}
}

func TestBTB(t *testing.T) {
	p := New()
	if _, hit := p.predictTarget(123); hit {
		t.Error("cold BTB hit")
	}
	p.updateTarget(123, 456)
	if tgt, hit := p.predictTarget(123); !hit || tgt != 456 {
		t.Errorf("BTB lookup = %d, %v", tgt, hit)
	}
	// Retrain with a new target.
	p.updateTarget(123, 789)
	if tgt, _ := p.predictTarget(123); tgt != 789 {
		t.Errorf("BTB retrain = %d", tgt)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	p := New()
	// Fill one set beyond its associativity; the oldest entry must be
	// evicted, the newest retained.
	base := 77
	for i := 0; i <= btbWays; i++ {
		p.updateTarget(base+i*btbSets, 1000+i)
	}
	if _, hit := p.predictTarget(base); hit {
		t.Error("LRU victim not evicted")
	}
	if tgt, hit := p.predictTarget(base + btbWays*btbSets); !hit || tgt != 1000+btbWays {
		t.Errorf("newest entry lost: %d, %v", tgt, hit)
	}
}

func TestReturnAddressStack(t *testing.T) {
	p := New()
	if _, ok := p.popReturn(); ok {
		t.Error("empty RAS popped")
	}
	p.pushReturn(10)
	p.pushReturn(20)
	if a, ok := p.popReturn(); !ok || a != 20 {
		t.Errorf("pop = %d, %v", a, ok)
	}
	if a, ok := p.popReturn(); !ok || a != 10 {
		t.Errorf("pop = %d, %v", a, ok)
	}
	if _, ok := p.popReturn(); ok {
		t.Error("RAS underflow not detected")
	}
	// Overflow wraps, keeping the most recent rasDepth entries.
	for i := 0; i < rasDepth+4; i++ {
		p.pushReturn(i)
	}
	if a, _ := p.popReturn(); a != rasDepth+3 {
		t.Errorf("after overflow, top = %d", a)
	}
}

func TestRandomBranchesNeverPanic(t *testing.T) {
	p := New()
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 100000; i++ {
		pc := r.Intn(1 << 20)
		p.predictDirection(pc)
		p.updateDirection(pc, r.Intn(2) == 0)
		if r.Intn(4) == 0 {
			p.updateTarget(pc, r.Intn(1<<20))
			p.predictTarget(pc)
		}
	}
}

// TestKindOfMatchesClass ties the front-end kinds to the ISA classification:
// exactly the branches have a kind, and exactly the conditional and
// indirect ones are predicted.
func TestKindOfMatchesClass(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		k, c := KindOf(op), isa.ClassOf(op)
		if (k != NotBranch) != c.IsBranch() || k.Predicted() != (c.IsCondBranch || c.IsIndirect) || int(k) >= NumKinds {
			t.Errorf("%v: kind %d for class %+v", op, k, c)
		}
	}
}

// TestFetchRedirects checks where a mispredicting front end goes: the
// fall-through of a wrongly not-taken branch, the stale target of a
// wrong-target one, and nowhere (-1) with no target to follow.
func TestFetchRedirects(t *testing.T) {
	p := New()
	if m, r := p.Fetch(Cond, 100, true, 140); !m || r != 101 {
		t.Errorf("cold taken branch: mispredict %v, redirect %d; want true, 101", m, r)
	}
	if m, r := p.Fetch(Indirect, 200, true, 300); !m || r != -1 {
		t.Errorf("BTB miss: mispredict %v, redirect %d; want true, -1", m, r)
	}
	if m, _ := p.Fetch(Indirect, 200, true, 300); m {
		t.Error("indirect jump to its BTB target mispredicted")
	}
	if m, r := p.Fetch(Indirect, 200, true, 400); !m || r != 300 {
		t.Errorf("stale BTB target: mispredict %v, redirect %d; want true, 300", m, r)
	}
	if m, r := p.Fetch(Return, 500, true, 11); !m || r != -1 {
		t.Errorf("empty RAS: mispredict %v, redirect %d; want true, -1", m, r)
	}
	p.Fetch(Call, 10, true, 600)
	if m, _ := p.Fetch(Return, 610, true, 11); m {
		t.Error("return to the pushed address mispredicted")
	}
	if m, _ := p.Fetch(NotBranch, 700, false, 701); m {
		t.Error("a non-branch mispredicted")
	}
}

// TestUpdateReturnsPrediction checks that training reports the direction
// predictDirection gave just before it, which is what Fetch relies on.
func TestUpdateReturnsPrediction(t *testing.T) {
	p := New()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		pc := r.Intn(1 << 12)
		want := p.predictDirection(pc)
		if got := p.updateDirection(pc, r.Intn(3) != 0); got != want {
			t.Fatalf("step %d: update reported %v, predictDirection %v", i, got, want)
		}
	}
}

// TestFetchAllocatesNothing: the detailed front end and functional warming
// call Fetch for every committed branch, so no kind, hit or miss, may
// allocate.
func TestFetchAllocatesNothing(t *testing.T) {
	type branch struct {
		k        Kind
		pc, next int
		taken    bool
	}
	r := rand.New(rand.NewSource(7))
	stream := make([]branch, 4096)
	for i := range stream {
		stream[i] = branch{Kind(1 + r.Intn(NumKinds-1)), r.Intn(1 << 12), r.Intn(1 << 12), r.Intn(3) > 0}
	}
	p := New()
	fetch := func() {
		for _, b := range stream {
			p.Fetch(b.k, b.pc, b.taken, b.next)
		}
	}
	fetch()
	if n := testing.AllocsPerRun(20, fetch); n != 0 {
		t.Fatalf("Fetch over %d branches: %v allocs per pass, want 0", len(stream), n)
	}
}
