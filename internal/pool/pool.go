// Package pool provides the bounded worker pool shared by the experiment
// harness and the rbserve service: a fixed set of worker goroutines draining
// a FIFO task queue. One pool per process bounds simulator concurrency at
// GOMAXPROCS no matter how many experiments (or HTTP requests) fan out cells
// into it, and its queue depth is the backpressure signal the server's
// /metrics endpoint and 429 admission control read. Only simulations enter
// it: the harness answers a cached cell on the caller's goroutine, so a
// cache hit is never queued, never counted in Depth or Submitted, and never
// waits behind a cold simulation.
package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed is the typed sentinel Submit and TrySubmit report once Close
// has begun: callers distinguish "the pool is shutting down" (stop
// submitting, drain) from a context cancellation with errors.Is.
var ErrPoolClosed = errors.New("pool: closed")

// Pool is a fixed-size worker pool over a bounded FIFO queue. Tasks must not
// submit to the pool they run on (all workers could then be blocked waiting
// on queue space held up by their own descendants); the experiment harness
// obeys this by fanning out only leaf (machine, workload) cells.
type Pool struct {
	queue   chan func()
	workers int

	wg sync.WaitGroup
	// mu guards done and, as a read lock, every send on queue: Close takes
	// the write lock before closing the channel, so no Submit can be
	// mid-send on a closed channel.
	mu   sync.RWMutex
	done bool

	depth     atomic.Int64 // queued + executing tasks
	submitted atomic.Int64
	completed atomic.Int64
}

// New starts a pool with the given number of workers and queue capacity.
// workers <= 0 defaults to GOMAXPROCS; queueCap <= 0 defaults to 64 slots
// per worker.
func New(workers, queueCap int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueCap <= 0 {
		queueCap = 64 * workers
	}
	p := &Pool{
		queue:   make(chan func(), queueCap),
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for fn := range p.queue {
		fn()
		p.completed.Add(1)
		p.depth.Add(-1)
	}
}

// Submit enqueues fn, blocking while the queue is full. It returns ctx.Err()
// if the context is done before the task is accepted, and ErrPoolClosed
// after Close — including for a Submit that races Close: the pool's lock
// ordering guarantees every Submit returns either nil (fn will run) or a
// definite error (fn will never run), never a silent drop.
func (p *Pool) Submit(ctx context.Context, fn func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.done {
		return ErrPoolClosed
	}
	// An already-canceled context must always lose: the select below picks
	// randomly among ready cases, so without this check a dead request
	// could still enqueue work whenever the queue has room.
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	// Count the task before the send: a worker can pop and finish it the
	// instant it lands, and the decrement must not precede the increment.
	p.depth.Add(1)
	// Holding mu as a read lock across this blocking send is the point of the
	// design: Close takes the write lock before closing queue, so no Submit
	// can be mid-send on a closed channel. Deadlock-free because workers never
	// touch mu and ctx.Done() always offers a way out.
	//rblint:allow lockstate
	select {
	case p.queue <- fn:
		p.submitted.Add(1)
		return nil
	case <-ctx.Done():
		p.depth.Add(-1)
		return ctx.Err()
	}
}

// TrySubmit enqueues fn without blocking and reports whether it was
// accepted. It is the admission-control primitive: a false return means the
// queue is saturated and the caller should shed load.
func (p *Pool) TrySubmit(fn func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.done {
		return false
	}
	p.depth.Add(1)
	select {
	case p.queue <- fn:
		p.submitted.Add(1)
		return true
	default:
		p.depth.Add(-1)
		return false
	}
}

// Workers is the worker count.
func (p *Pool) Workers() int { return p.workers }

// Depth is the number of tasks queued or executing. Like Completed, it
// counts a task out only after its function returns, so it is exact once
// Close returns.
func (p *Pool) Depth() int64 { return p.depth.Load() }

// Submitted is the number of tasks ever accepted.
func (p *Pool) Submitted() int64 { return p.submitted.Load() }

// Completed is the number of tasks that have finished. A task counts only
// after its function returns, so a caller that a task itself signals (a
// WaitGroup done inside it) may read Completed before that task is counted.
// Once Close returns, every accepted task has run and been counted, and
// Completed equals Submitted.
func (p *Pool) Completed() int64 { return p.completed.Load() }

// Close stops accepting tasks, drains the queue, and waits for the workers
// to exit. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.done {
		p.done = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
