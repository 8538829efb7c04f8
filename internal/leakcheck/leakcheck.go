// Package leakcheck ends a test binary with a goroutine-leak check. Every
// package whose non-test code starts goroutines (pool, server, grid, ckpt,
// experiments) runs its tests through Main:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Main counts goroutines before the tests and, once they have passed, waits
// for the count to fall back to that baseline. A pool worker, sweep loop or
// request goroutine that outlives its owner's Close keeps the count up, and
// the binary fails with every goroutine's stack. This is the shutdown
// contract of the serving layer checked where it holds: each goroutine it
// starts observes a context, a closed channel or its owner's Close.
package leakcheck

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// wait bounds how long Main waits for goroutines already on their way out:
// a worker that has seen Close but not yet returned, or an HTTP connection's
// read loop after its idle connection was closed.
const wait = 5 * time.Second

// Main runs the package's tests and, if they pass, checks that no goroutine
// started during them is still running wait later. It exits the process
// with the tests' status, or 1 on a leak. Each of after runs between the
// tests and the check: a package closes there what its tests share.
func Main(m *testing.M, after ...func()) {
	baseline, _ := count()
	code := m.Run()
	for _, f := range after {
		f()
	}
	if code == 0 {
		// Keep-alive connections of the default client are pooled, not
		// leaked: drop them so their read and write loops exit.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if err := Check(baseline, wait); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check polls the goroutine count until it is at most baseline. If the
// count is still higher once within has passed, it returns an error that
// holds every goroutine's stack.
func Check(baseline int, within time.Duration) error {
	deadline := time.Now().Add(within)
	for delay := time.Millisecond; ; delay = min(2*delay, 100*time.Millisecond) {
		n, all := count()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutines running, %d before the tests:\n\n%s", n, baseline, all)
		}
		time.Sleep(delay)
	}
}

// count returns the number of goroutines, less os/signal's loop, and the
// stacks of all of them. signal.Notify starts that loop for the life of the
// process, and the testing package's fuzz coordinator calls Notify.
func count() (int, []byte) {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2)
	all := buf.Bytes()
	return bytes.Count(all, []byte("\ngoroutine ")) + 1 - bytes.Count(all, []byte("\nos/signal.loop(")), all
}
