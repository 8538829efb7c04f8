package grid

// RetryClient is the grid's HTTP client: one request with bounded retries
// on transport errors and retryable statuses (5xx, 429). It is the PR-5
// probe client's loop promoted to a reusable type, with one behavioral fix
// (an ISSUE-9 satellite): a server-supplied Retry-After now *overrides* the
// exponential backoff schedule instead of merely flooring it. The server's
// admission control and circuit breaker know when capacity will return; a
// client that insists on its own longer doubled delay wastes exactly the
// time the hint was sent to save, and one that waits less hammers a shedding
// server.
//
// Wall-clock use (the backoff timer) is service plumbing, never simulated
// time, and carries determinism-lint allow directives; the delay *schedule*
// itself is the pure function RetryDelay, which is what the tests pin.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// StatusError is a non-2xx response that survived all retries.
type StatusError struct {
	Status int
	Body   []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("grid: status %d: %s", e.Status, bytes.TrimSpace(e.Body))
}

// RetryClient issues HTTP requests with retries. The zero value works:
// default client, DefaultRetries attempts, DefaultRetryBase backoff.
type RetryClient struct {
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// Retries is the number of extra attempts after a retryable failure;
	// 0 means DefaultRetries. Negative disables retries.
	Retries int
	// Base is the first backoff delay, doubled per retry; 0 means
	// DefaultRetryBase. A server Retry-After hint overrides the schedule.
	Base time.Duration
}

// Defaults for the zero-valued RetryClient.
const (
	DefaultRetries   = 3
	DefaultRetryBase = 100 * time.Millisecond
)

func (c *RetryClient) retries() int {
	if c.Retries == 0 {
		return DefaultRetries
	}
	if c.Retries < 0 {
		return 0
	}
	return c.Retries
}

func (c *RetryClient) base() time.Duration {
	if c.Base <= 0 {
		return DefaultRetryBase
	}
	return c.Base
}

func (c *RetryClient) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// RetryDelay is the wait before retry number attempt (0-based): the
// server's Retry-After hint verbatim when present, else base << attempt.
func RetryDelay(attempt int, base, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	return base << attempt
}

// ParseRetryAfter reads a Retry-After header value in either RFC 9110
// §10.2.3 form: delta-seconds ("3") or an HTTP-date ("Wed, 21 Oct 2015
// 07:28:00 GMT", evaluated against now). It returns 0 — "no hint, use the
// backoff schedule" — for an absent, malformed, zero, or already-elapsed
// value; rbserve itself only sends delta-seconds, but the coordinator's
// workers can sit behind proxies that rewrite the header into a date.
func ParseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if sec, err := strconv.Atoi(v); err == nil {
		if sec > 0 {
			return time.Duration(sec) * time.Second
		}
		return 0
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// Retryable reports whether a response status is worth retrying: server
// errors and shed (429) requests are transient, everything else is final.
func Retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// Get fetches url, retrying per the client's policy. It returns the final
// body and status; err is non-nil only for transport failures (a non-2xx
// final status is the caller's to interpret).
func (c *RetryClient) Get(ctx context.Context, url string) ([]byte, int, error) {
	body, status, _, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	})
	return body, status, err
}

// post sends body to url with the given content type, retrying per the
// client's policy (cell requests are idempotent: cells are deterministic
// and cached, so a duplicate delivery recomputes nothing). It also returns
// the final response's Retry-After hint, which the HTTP transport waits out
// when a worker sheds the cell.
func (c *RetryClient) post(ctx context.Context, url, contentType string, body []byte) ([]byte, int, time.Duration, error) {
	return c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		return req, nil
	})
}

func (c *RetryClient) do(ctx context.Context, build func() (*http.Request, error)) ([]byte, int, time.Duration, error) {
	retries := c.retries()
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, 0, 0, err
		}
		body, status, retryAfter, err := c.once(req)
		retryable := err != nil || Retryable(status)
		if !retryable || attempt >= retries {
			return body, status, retryAfter, err
		}
		if err := sleep(ctx, RetryDelay(attempt, c.base(), retryAfter)); err != nil {
			return nil, 0, 0, err
		}
	}
}

// sleep waits d, or returns ctx's error if it ends first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d) //rblint:allow determinism
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *RetryClient) once(req *http.Request) (body []byte, status int, retryAfter time.Duration, err error) {
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, 0, err
	}
	hint := ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()) //rblint:allow determinism
	return body, resp.StatusCode, hint, nil
}
