package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

// parkOnChannel blocks until release is closed: a goroutine that outlives
// its test the way a pool worker would if Close never closed its queue.
func parkOnChannel(release <-chan struct{}, done chan<- struct{}) {
	<-release
	close(done)
}

// TestCheckNamesParkedGoroutine: a goroutine parked on a channel fails Check,
// and the error names the function it is parked in; once released, Check
// passes.
func TestCheckNamesParkedGoroutine(t *testing.T) {
	baseline, _ := count()
	release, done := make(chan struct{}), make(chan struct{})
	go parkOnChannel(release, done)

	err := Check(baseline, 20*time.Millisecond)
	if err == nil {
		t.Fatal("Check passed with a parked goroutine running")
	}
	if !strings.Contains(err.Error(), "leakcheck.parkOnChannel") {
		t.Errorf("Check error does not name the parked function:\n%s", err)
	}

	close(release)
	<-done
	if err := Check(baseline, wait); err != nil {
		t.Fatalf("Check failed after the goroutine was released: %v", err)
	}
}

// TestCheckWaitsForExitingGoroutine: a goroutine that is on its way out when
// Check starts does not fail it.
func TestCheckWaitsForExitingGoroutine(t *testing.T) {
	baseline, _ := count()
	go time.Sleep(30 * time.Millisecond)
	if err := Check(baseline, wait); err != nil {
		t.Fatal(err)
	}
}
