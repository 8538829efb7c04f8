// Command rbserve runs the simulation service: the experiment harness,
// simulator, and check suite behind an HTTP API.
//
// Usage:
//
//	rbserve -addr :8080
//	rbserve -addr 127.0.0.1:0 -addr-file /tmp/rbserve.addr   # ephemeral port
//	rbserve -get http://127.0.0.1:8080/healthz               # probe client
//
//	rbserve -role=worker -addr 127.0.0.1:9001                # grid worker
//	rbserve -role=coordinator \
//	    -workers http://127.0.0.1:9001,http://127.0.0.1:9002 # grid front end
//
//	rbserve -role=coordinator -journal-dir /var/rb/journals  # durable batches,
//	                                                         # workers join via -register
//	rbserve -role=worker -addr 127.0.0.1:0 \
//	    -register http://127.0.0.1:8080                      # heartbeat into the grid
//
// Endpoints: /healthz, /metrics, /v1/workloads,
// /v1/experiment/{name}?format=json|text, /v1/sim, /v1/check, /v1/cell,
// /v1/batch, and /debug/pprof. See the README "Serving the simulator" and
// "Distributed serving" sections for curl examples. SIGINT/SIGTERM drain
// in-flight requests before exit.
//
// A coordinator routes each experiment cell across its -workers by
// rendezvous hashing, retries per-worker with backoff (a worker's
// Retry-After hint overrides the schedule, and a worker that sheds a cell
// with 429 is waited for, not failed over), trips a per-worker circuit
// breaker on repeated failures, and caches cell results in a shared tier so
// re-running a sweep touches no worker at all. A worker is just a normal
// single-process rbserve; its /v1/cell endpoint is what the coordinator
// calls.
//
// The -get mode is a minimal HTTP client (fetch one URL, print the body,
// exit non-zero on a non-2xx status) so scripts/ci.sh can smoke-test the
// server without depending on curl or wget being installed. Transport
// errors and retryable statuses (5xx, 429) back off exponentially for up
// to -retries attempts; a server Retry-After hint (admission control or an
// open circuit breaker) overrides the backoff schedule, so a probe racing
// the server's startup or a shed request does not flap CI.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/grid"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file once serving")
	parallel := flag.Int("parallel", 0, "worker pool size for simulation cells (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently admitted /v1 requests before shedding 429s (0 = 2*parallel)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request deadline for /v1 routes")
	cacheMB := flag.Int64("cache-mb", 64, "rendered-response cache budget in MiB")
	role := flag.String("role", "", "grid role: empty (single process), worker, or coordinator")
	workers := flag.String("workers", "", "coordinator mode: comma-separated seed worker base URLs (optional when workers -register)")
	gridInflight := flag.Int("grid-inflight", 0, "coordinator mode: max concurrently routed cells (0 = 4 per worker)")
	journalDir := flag.String("journal-dir", "", "coordinator mode: append batch journals here; incomplete batches resume on restart")
	heartbeat := flag.Duration("heartbeat", 0, "coordinator mode: expected worker heartbeat interval (0 = 2s)")
	register := flag.String("register", "", "worker mode: coordinator base URL to send registration heartbeats to")
	advertise := flag.String("advertise", "", "worker mode: base URL to advertise in heartbeats (default http://<bound addr>)")
	get := flag.String("get", "", "probe mode: fetch this URL, print the body, and exit")
	retries := flag.Int("retries", 3, "probe mode: extra attempts after a transport error or retryable status")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "probe mode: first backoff delay, doubled per retry")
	flag.Parse()

	if *get != "" {
		os.Exit(probe(*get, *retries, *retryBase))
	}

	cfg := server.Config{
		Parallel:       *parallel,
		MaxInflight:    *maxInflight,
		RequestTimeout: *timeout,
		CacheBytes:     *cacheMB << 20,
	}
	switch *role {
	case "", "worker":
		// A worker is a plain single-process server; /v1/cell is always
		// mounted, so the role only documents intent.
		if *workers != "" {
			log.Fatalf("rbserve: -workers requires -role=coordinator")
		}
		if *journalDir != "" {
			log.Fatalf("rbserve: -journal-dir requires -role=coordinator")
		}
	case "coordinator":
		// Seed workers are optional: a coordinator without -workers starts
		// with an empty grid and waits for workers to -register.
		for _, w := range strings.Split(*workers, ",") {
			w = strings.TrimSpace(w)
			if w == "" && *workers != "" {
				log.Fatalf("rbserve: empty worker URL in -workers")
			}
			if w != "" {
				cfg.Workers = append(cfg.Workers, w)
			}
		}
		if *register != "" {
			log.Fatalf("rbserve: -register is for workers; a coordinator is registered with")
		}
		cfg.Coordinator = true
		cfg.GridMaxInflight = *gridInflight
		cfg.JournalDir = *journalDir
		cfg.HeartbeatInterval = *heartbeat
	default:
		log.Fatalf("rbserve: unknown -role %q (want worker or coordinator)", *role)
	}

	srv := server.New(cfg)
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("rbserve: %v", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("rbserve: %v", err)
		}
	}
	if cfg.Coordinator {
		log.Printf("rbserve: coordinating (%d seed workers), listening on http://%s", len(cfg.Workers), bound)
	} else {
		log.Printf("rbserve: listening on http://%s", bound)
	}

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	if cfg.JournalDir != "" {
		// Resume incomplete batches in the background: the listener is
		// already answering, and a resume needs live workers anyway.
		go func() {
			if err := srv.ResumeJournals(context.Background()); err != nil {
				log.Printf("rbserve: journal resume: %v", err)
			}
		}()
	}
	if *register != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + bound
		}
		// Process-lifetime daemon by design: the worker beats until it
		// dies, and a coordinator restart just sees it rejoin.
		go heartbeatLoop(strings.TrimRight(*register, "/"), adv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("rbserve: %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("rbserve: drain incomplete: %v", err)
			os.Exit(1)
		}
		log.Printf("rbserve: drained")
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("rbserve: %v", err)
		}
	}
}

// heartbeatLoop registers this worker with the coordinator and keeps
// beating at the interval the coordinator dictates. Failures are retried at
// the same cadence — a coordinator restart just sees the worker rejoin —
// and logged only on state changes so a long outage does not spam the log.
func heartbeatLoop(coordinator, advertise string) {
	client := &http.Client{Timeout: 10 * time.Second}
	interval := grid.DefaultHeartbeatInterval
	body := strings.NewReader("")
	failing := false
	for {
		body.Reset(fmt.Sprintf(`{"url": %q}`, advertise))
		resp, err := client.Post(coordinator+"/v1/register", "application/json", body)
		switch {
		case err != nil:
			if !failing {
				log.Printf("rbserve: heartbeat to %s failed: %v", coordinator, err)
			}
			failing = true
		case resp.StatusCode != http.StatusOK:
			resp.Body.Close()
			if !failing {
				log.Printf("rbserve: heartbeat to %s rejected: %d", coordinator, resp.StatusCode)
			}
			failing = true
		default:
			var reg struct {
				Joined          bool    `json:"joined"`
				IntervalSeconds float64 `json:"interval_seconds"`
			}
			err := json.NewDecoder(resp.Body).Decode(&reg)
			resp.Body.Close()
			if err == nil && reg.IntervalSeconds > 0 {
				interval = time.Duration(reg.IntervalSeconds * float64(time.Second))
			}
			if failing || reg.Joined {
				log.Printf("rbserve: registered with %s as %s (beating every %v)", coordinator, advertise, interval)
			}
			failing = false
		}
		time.Sleep(interval)
	}
}

// probe fetches one URL and prints the body; exit status 0 only for 2xx.
// The retry loop is grid.RetryClient — the same client the coordinator
// uses against workers — so CI probes and cell routing share one policy:
// exponential backoff from retryBase, with a server Retry-After hint
// overriding the computed delay.
func probe(url string, retries int, retryBase time.Duration) int {
	c := &grid.RetryClient{
		HTTP:    &http.Client{Timeout: 5 * time.Minute},
		Retries: retries,
		Base:    retryBase,
	}
	if retries <= 0 {
		c.Retries = -1 // flag 0 means "no retries", not the client default
	}
	body, status, err := c.Get(context.Background(), url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbserve: %v\n", err)
		return 1
	}
	os.Stdout.Write(body)
	if status < 200 || status >= 300 {
		fmt.Fprintf(os.Stderr, "rbserve: %s returned %d\n", url, status)
		return 1
	}
	return 0
}
