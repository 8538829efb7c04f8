package grid

// Worker registry: the coordinator's membership and health view of the
// grid. PR 9's router was built over a static -workers list; the registry
// keeps that list as the *seed set* and grows it dynamically — a worker
// POSTs /v1/register (which doubles as its heartbeat) and the coordinator
// admits it into rendezvous routing. Health is a three-state machine per
// worker:
//
//	alive ──(no beat for 3 intervals)──▶ suspect
//	suspect ──(no beat for 10 intervals)──▶ dead
//	suspect/dead ──(heartbeat)──▶ alive        (a dead rejoin resets its breaker)
//
// Dead workers are removed from the live set, so rendezvous routing
// re-homes their cells onto the survivors automatically; a join extends the
// preference lists the same way. Seed workers that have never sent a
// heartbeat are exempt from the timeout machine (a PR-9 grid with plain
// -workers and no heartbeating keeps exactly its old behavior: the breaker
// is their only health signal); once a seed heartbeats, it opts into the
// same state machine as a registered worker.
//
// Every transition takes an explicit `now`, so the state machine is a pure
// function of (heartbeat history, timestamps) — tests and the rbfault grid
// campaign drive it with a fake clock. Only callers read the wall clock.

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Health is a worker's liveness in the registry.
type Health int32

const (
	HealthAlive Health = iota
	HealthSuspect
	HealthDead
)

func (h Health) String() string {
	switch h {
	case HealthSuspect:
		return "suspect"
	case HealthDead:
		return "dead"
	default:
		return "alive"
	}
}

// Registry timing: the default beat period, and the silences (in beat
// periods) after which a worker turns suspect and then dead.
const (
	DefaultHeartbeatInterval = 2 * time.Second
	suspectIntervals         = 3
	deadIntervals            = 10
)

// worker is one routing target: its transport, breaker, traffic counters,
// and registry health. Transport, breaker, and the atomic counters are
// written on the routing path; the health fields are guarded by the owning
// registry's mutex.
type worker struct {
	name      string
	transport Transport
	seed      bool // from the static -workers list

	brk      *Breaker
	inflight atomic.Int64 // cells currently on this worker
	routed   atomic.Int64 // cells ever routed here (including failures)
	failed   atomic.Int64 // cells that failed here (caused failover)
	hedges   atomic.Int64 // hedge attempts launched against this worker
	hedgeWon atomic.Int64 // hedge attempts that produced the winning result

	// Registry-mu-guarded health state.
	health   Health
	hasBeat  bool // at least one heartbeat ever received
	lastBeat time.Time
	beats    int64
}

// registry holds the worker set. It is owned by a Router; the server's
// /v1/register handler and health sweeper reach it through Router methods.
type registry struct {
	mu sync.Mutex

	interval     time.Duration
	newTransport func(base string) Transport
	newBreaker   func() *Breaker

	members map[string]*worker
	order   []string // deterministic iteration: seeds first, then join order

	joins    int64 // workers ever admitted beyond the seed set
	rejoins  int64 // dead workers revived by a heartbeat
	suspects int64 // alive → suspect transitions
	deaths   int64 // suspect → dead transitions
}

func newRegistry(interval time.Duration, newTransport func(base string) Transport, newBreaker func() *Breaker) *registry {
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	if newTransport == nil {
		newTransport = func(base string) Transport {
			return &HTTP{Base: base, Client: &RetryClient{HTTP: &http.Client{Timeout: 2 * time.Minute}}}
		}
	}
	return &registry{
		interval:     interval,
		newTransport: newTransport,
		newBreaker:   newBreaker,
		members:      make(map[string]*worker),
	}
}

// addSeed admits one static worker (startup only; duplicate names error).
func (g *registry) addSeed(t Transport) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	name := t.Name()
	if _, ok := g.members[name]; ok {
		return fmt.Errorf("grid: duplicate worker name %q", name)
	}
	g.members[name] = &worker{name: name, transport: t, seed: true, brk: g.newBreaker()}
	g.order = append(g.order, name)
	return nil
}

// heartbeat records one beat from the named worker, admitting it if new.
// A worker URL doubles as its name, exactly as the seed list's HTTP
// transports use their base URL. It reports whether the worker newly joined
// (or rejoined from the dead).
func (g *registry) heartbeat(name string, now time.Time) (joined bool, err error) {
	if name == "" {
		return false, fmt.Errorf("grid: empty worker name in registration")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.members[name]
	if !ok {
		w = &worker{name: name, transport: g.newTransport(name), brk: g.newBreaker()}
		g.members[name] = w
		g.order = append(g.order, name)
		g.joins++
		joined = true
	}
	if w.health == HealthDead {
		// Rejoin with a clean slate: the old breaker's failure window
		// describes a process that no longer exists.
		w.brk = g.newBreaker()
		g.rejoins++
		joined = true
	}
	w.health = HealthAlive
	w.hasBeat = true
	w.lastBeat = now
	w.beats++
	return joined, nil
}

// sweep advances the health state machine to now and reports how many
// workers changed state. Seeds that never heartbeated are static (skipped).
func (g *registry) sweep(now time.Time) (changed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	suspectAfter, deadAfter := suspectIntervals*g.interval, deadIntervals*g.interval
	for _, name := range g.order {
		w := g.members[name]
		if !w.hasBeat {
			continue
		}
		age := now.Sub(w.lastBeat)
		switch {
		case w.health == HealthAlive && age >= suspectAfter:
			w.health = HealthSuspect
			g.suspects++
			changed++
			if age >= deadAfter {
				w.health = HealthDead
				g.deaths++
			}
		case w.health == HealthSuspect && age >= deadAfter:
			w.health = HealthDead
			g.deaths++
			changed++
		}
	}
	return changed
}

// live snapshots the routable worker set — everything not dead — in
// registration order. The slices are fresh copies: routing iterates them
// without holding the registry lock.
func (g *registry) live() (names []string, workers []*worker) {
	g.mu.Lock()
	defer g.mu.Unlock()
	names = make([]string, 0, len(g.order))
	workers = make([]*worker, 0, len(g.order))
	for _, name := range g.order {
		w := g.members[name]
		if w.health == HealthDead {
			continue
		}
		names = append(names, name)
		workers = append(workers, w)
	}
	return names, workers
}

// RegistryStats aggregates membership transitions for /metrics.
type RegistryStats struct {
	Workers  int   `json:"workers"` // members known (any health)
	Live     int   `json:"live"`    // members routable (alive or suspect)
	Joins    int64 `json:"joins"`
	Rejoins  int64 `json:"rejoins"`
	Suspects int64 `json:"suspect_transitions"`
	Deaths   int64 `json:"death_transitions"`
}

// snapshot renders per-worker health plus the transition counters. Ages are
// relative to now so the output is a pure function of (state, now).
func (g *registry) snapshot(now time.Time) ([]WorkerSnapshot, RegistryStats) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]WorkerSnapshot, 0, len(g.order))
	stats := RegistryStats{
		Workers: len(g.order), Joins: g.joins, Rejoins: g.rejoins,
		Suspects: g.suspects, Deaths: g.deaths,
	}
	for _, name := range g.order {
		w := g.members[name]
		state, trips, shed := w.brk.Snapshot()
		ws := WorkerSnapshot{
			Name:      name,
			Health:    w.health.String(),
			Seed:      w.seed,
			Beats:     w.beats,
			Breaker:   state,
			Trips:     trips,
			Shed:      shed,
			Inflight:  w.inflight.Load(),
			Routed:    w.routed.Load(),
			Failed:    w.failed.Load(),
			Hedges:    w.hedges.Load(),
			HedgeWins: w.hedgeWon.Load(),
		}
		if w.hasBeat {
			ws.BeatAgeSeconds = now.Sub(w.lastBeat).Seconds()
		}
		if w.health != HealthDead {
			stats.Live++
		}
		out = append(out, ws)
	}
	return out, stats
}
