package grid

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryDelayOverride pins the satellite fix: a server Retry-After hint
// *overrides* the exponential schedule in both directions. The old probe
// client took max(backoff, hint), which ignored a short hint exactly when
// the backoff had grown long.
func TestRetryDelayOverride(t *testing.T) {
	base := 100 * time.Millisecond
	cases := []struct {
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{0, 0, 100 * time.Millisecond}, // no hint: base
		{1, 0, 200 * time.Millisecond}, // no hint: doubled
		{3, 0, 800 * time.Millisecond}, // no hint: base << 3
		{0, time.Second, time.Second},  // hint above backoff: hint wins
		{3, time.Second, time.Second},  // hint below backoff would be 800ms under max(); override still yields the hint
		{5, time.Second, time.Second},  // hint far below backoff (3.2s): hint still wins
		{2, 2 * time.Second, 2 * time.Second},
	}
	for _, c := range cases {
		if got := RetryDelay(c.attempt, base, c.retryAfter); got != c.want {
			t.Errorf("RetryDelay(%d, %v, %v) = %v, want %v",
				c.attempt, base, c.retryAfter, got, c.want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2015, 10, 21, 7, 28, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		// Delta-seconds form.
		{"", 0}, {"3", 3 * time.Second}, {"0", 0}, {"-1", 0},
		// Malformed values mean "no hint": the caller falls back to its
		// backoff schedule rather than retrying immediately.
		{"soon", 0}, {"1.5", 0}, {"Wed, 32 Oct 2015 07:28:00 GMT", 0},
		// HTTP-date form (RFC 9110 §10.2.3), relative to now.
		{"Wed, 21 Oct 2015 07:28:30 GMT", 30 * time.Second},
		{"Wed, 21 Oct 2015 07:30:00 GMT", 2 * time.Minute},
		// A date in the past (or right now) is an elapsed hint: no wait.
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
		{"Tue, 20 Oct 2015 07:28:00 GMT", 0},
		// The obsolete RFC 850 and asctime date forms parse too.
		{"Wednesday, 21-Oct-15 07:28:10 GMT", 10 * time.Second},
		{"Wed Oct 21 07:28:05 2015", 5 * time.Second},
	}
	for _, c := range cases {
		if got := ParseRetryAfter(c.in, now); got != c.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRetryClientHonorsDateHint drives the HTTP-date form end to end: with a
// pathological 10s backoff base, a 429 carrying a near-future HTTP-date must
// be retried after roughly that date, not after the backoff.
func TestRetryClientHonorsDateHint(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(time.Second).UTC().Format(http.TimeFormat)) //rblint:allow determinism
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	c := &RetryClient{HTTP: srv.Client(), Retries: 1, Base: 10 * time.Second}
	start := time.Now() //rblint:allow determinism
	_, status, err := c.Get(context.Background(), srv.URL)
	elapsed := time.Since(start) //rblint:allow determinism
	if err != nil || status != http.StatusOK {
		t.Fatalf("Get = %d, %v; want 200, nil", status, err)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("retry waited %v: HTTP-date hint did not override the 10s backoff", elapsed)
	}
}

func TestRetryable(t *testing.T) {
	for status, want := range map[int]bool{
		200: false, 204: false, 400: false, 404: false,
		429: true, 500: true, 502: true, 503: true,
	} {
		if got := Retryable(status); got != want {
			t.Errorf("Retryable(%d) = %v, want %v", status, got, want)
		}
	}
}

// TestRetryClientRecovers drives the whole loop against a server that fails
// twice before succeeding.
func TestRetryClientRecovers(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready"))
	}))
	defer srv.Close()

	c := &RetryClient{HTTP: srv.Client(), Retries: 3, Base: time.Millisecond}
	body, status, err := c.Get(context.Background(), srv.URL)
	if err != nil || status != http.StatusOK || string(body) != "ready" {
		t.Fatalf("Get = %q, %d, %v; want ready, 200, nil", body, status, err)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3", n)
	}
}

// TestRetryClientHonorsShortHint proves the override end to end: with a
// pathological 10s backoff base, a 429 carrying Retry-After: 1 must be
// retried after ~1s, not 10s.
func TestRetryClientHonorsShortHint(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	c := &RetryClient{HTTP: srv.Client(), Retries: 1, Base: 10 * time.Second}
	start := time.Now() //rblint:allow determinism
	_, status, err := c.Get(context.Background(), srv.URL)
	elapsed := time.Since(start) //rblint:allow determinism
	if err != nil || status != http.StatusOK {
		t.Fatalf("Get = %d, %v; want 200, nil", status, err)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("retry waited %v: Retry-After hint did not override the 10s backoff", elapsed)
	}
}

// TestRetryClientNoRetries checks Retries < 0 disables the loop (the probe
// flag's -retries=0 meaning), and that a final non-2xx is returned as a
// status, not an error.
func TestRetryClientNoRetries(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := &RetryClient{HTTP: srv.Client(), Retries: -1, Base: time.Millisecond}
	_, status, err := c.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("transport error for a served 500: %v", err)
	}
	if status != http.StatusInternalServerError || hits.Load() != 1 {
		t.Fatalf("status=%d hits=%d, want 500 after exactly 1 attempt", status, hits.Load())
	}
}

// TestRetryClientContextCancel: a canceled context interrupts the backoff
// wait instead of sleeping it out.
func TestRetryClientContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := &RetryClient{HTTP: srv.Client(), Retries: 5, Base: time.Hour}
	start := time.Now() //rblint:allow determinism
	_, _, err := c.Get(ctx, srv.URL)
	if err == nil {
		t.Fatal("expected a context error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second { //rblint:allow determinism
		t.Fatalf("cancel took %v, backoff did not honor ctx", elapsed)
	}
}

// TestHTTPShedIsBackpressure: a worker that sheds a cell with 429 more
// times than the client's retries allow is at capacity, not failing. The
// transport keeps waiting and re-asking the same worker, so the cell
// succeeds once the worker admits it, and the worker's breaker records no
// failure.
func TestHTTPShedIsBackpressure(t *testing.T) {
	const sheds = 5
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= sheds {
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		var req CellRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(&CellResult{Key: req.Key()})
	}))
	defer srv.Close()
	worker := &HTTP{Base: srv.URL, Client: &RetryClient{Retries: 1, Base: time.Millisecond}}
	r := newTestRouter(t, worker)
	cell := testCell("compress")
	res, err := r.Do(context.Background(), cell)
	if err != nil {
		t.Fatalf("shed cell failed: %v", err)
	}
	if res.Key != cell.Key() {
		t.Fatalf("key = %q, want %q", res.Key, cell.Key())
	}
	if n := hits.Load(); n != sheds+1 {
		t.Fatalf("worker saw %d requests, want %d", n, sheds+1)
	}
	snaps, _ := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Failed != 0 || snaps[0].Breaker != "closed" || snaps[0].Routed != 1 {
		t.Fatalf("shedding worker charged as failing: %+v", snaps)
	}
}
