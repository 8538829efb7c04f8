package rcache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHitAfterMiss(t *testing.T) {
	c := New(4, 0)
	ctx := context.Background()
	var calls atomic.Int64
	compute := func() (any, int64, error) {
		calls.Add(1)
		return 42, 1, nil
	}
	v, hit, err := c.Do(ctx, "k", compute)
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("first Do = (%v, %v, %v), want (42, false, nil)", v, hit, err)
	}
	v, hit, err = c.Do(ctx, "k", compute)
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("second Do = (%v, %v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestSingleflightDedup(t *testing.T) {
	c := New(1, 0)
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "shared", func() (any, int64, error) {
				calls.Add(1)
				<-gate // hold every joiner in-flight
				return "value", 1, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", calls.Load())
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("goroutine %d saw %v", i, v)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits+st.Joins != 31 {
		t.Fatalf("stats = %+v, want 1 miss and 31 hits+joins", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(2, 0)
	boom := errors.New("boom")
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		_, _, err := c.Do(context.Background(), "bad", func() (any, int64, error) {
			calls.Add(1)
			return nil, 0, boom
		})
		if err != boom {
			t.Fatalf("Do = %v, want boom", err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("failed compute ran %d times, want 3 (errors must not be cached)", calls.Load())
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries after errors, want 0", st.Entries)
	}
}

func TestEvictionByCost(t *testing.T) {
	c := New(1, 10) // one shard, budget 10
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(ctx, key, func() (any, int64, error) { return i, 4, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Cost > 10 {
		t.Fatalf("cache cost %d exceeds budget 10", st.Cost)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 20 cost against a 10 budget")
	}
	// Most recent key must have survived (LRU evicts from the cold end).
	if _, ok := c.Get("k4"); !ok {
		t.Fatal("most recently inserted key was evicted")
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest key survived past the budget")
	}
}

func TestOversizedEntryStillServed(t *testing.T) {
	c := New(1, 5)
	v, _, err := c.Do(context.Background(), "big", func() (any, int64, error) { return "x", 100, nil })
	if err != nil || v != "x" {
		t.Fatalf("Do = (%v, %v)", v, err)
	}
	if st := c.Stats(); st.Cost > 5 && st.Entries > 0 {
		// The oversized entry must not be allowed to pin the shard over
		// budget forever; it is evicted on insert accounting.
		t.Fatalf("oversized entry retained: %+v", st)
	}
}

func TestJoinHonorsContext(t *testing.T) {
	c := New(1, 0)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), "slow", func() (any, int64, error) {
			close(started)
			<-gate
			return 1, 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "slow", func() (any, int64, error) { return 2, 1, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joining Do on canceled ctx = %v, want context.Canceled", err)
	}
	close(gate)
}

func TestConcurrentMixedKeys(t *testing.T) {
	// 32 goroutines over 8 keys: exactly one compute per key, everyone sees
	// the right value (run with -race).
	c := New(4, 0)
	var calls [8]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (g + i) % 8
				v, _, err := c.Do(context.Background(), fmt.Sprintf("key-%d", k), func() (any, int64, error) {
					calls[k].Add(1)
					return k * 10, 1, nil
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if v.(int) != k*10 {
					t.Errorf("key %d returned %v", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range calls {
		if n := calls[k].Load(); n != 1 {
			t.Fatalf("key %d computed %d times, want 1", k, n)
		}
	}
}

// TestReadyOnlyOnceCharged pins the ordering that keeps the cost accounting
// exact: while another caller holds the shard lock, a finished computation
// must not look ready yet (a ready entry is an eviction candidate, and
// evicting one whose cost was never charged drove the shard's cost below
// the sum of its entries, so the cache later held more than its budget).
func TestReadyOnlyOnceCharged(t *testing.T) {
	c := New(1, 100)
	sh := c.shards[0]
	started, locked, returned, done := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "a", func() (any, int64, error) {
			defer close(returned)
			close(started)
			<-locked
			return "a", 60, nil
		})
	}()
	<-started
	sh.mu.Lock()
	close(locked)
	<-returned
	// The filler is now past compute and needs the lock we hold. Give it
	// every chance to run ahead; it must not mark the entry ready.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	e := sh.entries["a"]
	if e == nil || isReady(e) {
		t.Fatal("entry turned ready before its cost was charged")
	}
	sh.mu.Unlock()
	<-done
	// A second fill evicts the first; the shard's cost must equal what it
	// holds.
	c.Do(context.Background(), "b", func() (any, int64, error) { return "b", 70, nil })
	st := c.Stats()
	if st.Entries != 1 || st.Cost != 70 || st.Evictions != 1 {
		t.Fatalf("after evicting a for b: %+v, want 1 entry of cost 70 and 1 eviction", st)
	}
}

// TestGetHitAllocatesNothing: a hit (shard hash, lookup, LRU move) must not
// allocate; the result cache serves every repeated request through it.
func TestGetHitAllocatesNothing(t *testing.T) {
	c := New(8, 0)
	keys := []string{"fig9|RB-full-8|gcc00", "fig9|baseline-4|mcf", "k"}
	for _, k := range keys {
		if _, _, err := c.Do(context.Background(), k, func() (any, int64, error) { return k, 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			if _, ok := c.Get(k); !ok {
				t.Fatalf("Get(%q) missed", k)
			}
		}
	}); n != 0 {
		t.Fatalf("Get on a hit: %v allocs per run, want 0", n)
	}
}
