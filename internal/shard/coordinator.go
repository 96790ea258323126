package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/influence"
	"ucgraph/internal/knn"
	"ucgraph/internal/obs"
	"ucgraph/internal/rng"
	"ucgraph/internal/worldstore"
)

// pingClient carries worker pings and membership probes: a dedicated
// client with no global timeout (each ping's context bounds it). Tally
// traffic does not use it — tallies ride the persistent v2 streams.
var pingClient = &http.Client{}

// breakerMaxBackoff caps a worker breaker's exponential backoff, and
// quarantineWindow is the span in which QuarantineTrips breaker trips
// quarantine a worker.
const (
	breakerMaxBackoff = 30 * time.Second
	quarantineWindow  = time.Minute
)

// CoordinatorOptions configures a Coordinator. The zero value selects the
// documented defaults.
type CoordinatorOptions struct {
	// Retries is how many extra scatter rounds a query may spend
	// re-scattering blocks whose worker failed (default 2). Re-scattered
	// blocks move to a different live worker when one exists; a restarted
	// worker answers for itself again once pings mark it up.
	Retries int
	// RequestTimeout caps one worker request (default 60s), layered under
	// the query context, so a hung worker turns into a retriable failure
	// instead of stalling the whole query until its deadline.
	RequestTimeout time.Duration
	// HedgeDelay, when positive, arms a hedge against straggler workers:
	// if a scatter group has not answered after this delay, the same
	// request is raced against a second live worker and the first answer
	// wins. The loser's answer is a suppressed duplicate — never a
	// failure, and never double-merged (the group's win flag admits
	// exactly one answer). Zero disables hedging.
	HedgeDelay time.Duration
	// BreakerThreshold is the consecutive tally-failure count that trips a
	// worker's circuit breaker (default 3). While open, the worker gets no
	// new block assignments, hedges or audits; the breaker half-opens when
	// the backoff expires (or immediately when no alternative worker is
	// available — a one-worker fleet never deadlocks on its own breaker).
	// A successful tally or ping closes it.
	BreakerThreshold int
	// BreakerBackoff is the base open interval (default 100ms). Each
	// further consecutive failure doubles it, up to 30s, and a
	// deterministic jitter in [0, backoff/2] — seeded from the
	// coordinator seed and the worker address, never the clock — spreads
	// reconnect storms without breaking replayability.
	BreakerBackoff time.Duration
	// RetryBudget caps the total block re-scatters a single query may
	// spend across all its retry rounds (default 4096): a query against a
	// melting fleet fails crisply instead of grinding through rounds of
	// full-rate retries.
	RetryBudget int
	// QuarantineTrips defines flap quarantine: a worker whose breaker
	// trips QuarantineTrips times within one minute (default 8) is
	// quarantined — taken out of assignment until an operator re-adds it
	// via AddWorker (POST /v1/shards). QuarantineTrips <= 0 disables flap
	// quarantine; audit divergence quarantines unconditionally.
	QuarantineTrips int
	// AuditFraction, in [0, 1], samples completed scatter groups for an
	// audit: the group's ranges are re-executed on a second worker and the
	// raw tallies compared byte-for-byte; on divergence the coordinator
	// recomputes locally as referee, merges the verified tallies, and
	// quarantines whichever worker diverged. Selection is seeded and
	// deterministic. 0 (the default) disables auditing.
	AuditFraction float64

	// OnWorkerRTT, when non-nil, receives the round-trip time of every
	// successful worker tally attempt (wins, duplicates and audits alike)
	// — the feed for the daemon's per-worker RTT histograms. Called from
	// scatter goroutines; must be cheap and safe for concurrent use. Pure
	// observation: it never affects scheduling or results.
	OnWorkerRTT func(addr string, rtt time.Duration)
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Retries <= 0 {
		o.Retries = 2
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerBackoff <= 0 {
		o.BreakerBackoff = 100 * time.Millisecond
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 4096
	}
	if o.QuarantineTrips == 0 {
		o.QuarantineTrips = 8
	}
	return o
}

// WorkerStats is the health snapshot of one worker, as surfaced by the
// daemon's /statsz endpoint.
type WorkerStats struct {
	// Addr is the worker's base URL.
	Addr string
	// State is the membership state: "up", "down" (pings failing; blocks
	// re-striped to the survivors), "quarantined" (flapping or divergent;
	// sidelined until an operator re-adds it) or "removed"
	// (administratively left).
	State string
	// Requests and Failures count tally/ping round-trips issued and
	// failed. Duplicates counts hedged answers that lost the race and
	// were suppressed — they are deliberately not failures.
	Requests, Failures, Duplicates uint64
	// RangesServed and WorldsServed count the world ranges (and worlds)
	// whose tallies this worker successfully returned.
	RangesServed, WorldsServed uint64
	// BreakerTrips counts circuit-breaker trips; BreakerOpen reports
	// whether the breaker is currently open (the worker is being backed
	// off, not assigned new blocks).
	BreakerTrips uint64
	BreakerOpen  bool
	// IntegrityRejects counts responses from this worker rejected for a
	// CRC32-C mismatch before decoding (the range was re-scattered).
	IntegrityRejects uint64
	// LastRTT is the round-trip time of the last successful request;
	// LastOK is when it completed. LastErr is the most recent failure
	// (empty if none).
	LastRTT time.Duration
	LastOK  time.Time
	LastErr string
}

// workerClient is the coordinator-side handle of one worker: a JSON
// client for pings plus the persistent v2 stream for tallies.
type workerClient struct {
	base      string // normalized base URL, no trailing slash
	stream    *streamClient
	streamErr error // base URL unusable for streaming (reported per call)

	mu    sync.Mutex
	stats WorkerStats
}

// NormalizeAddr is the base URL a coordinator files a worker address
// under: spaces and trailing slashes trimmed, "http://" prefixed to a bare
// "host:port". A blank address yields "".
func NormalizeAddr(addr string) string {
	base := strings.TrimRight(strings.TrimSpace(addr), "/")
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// newWorkerClient normalizes addr ("host:port" or a full URL) into a
// client.
func newWorkerClient(addr string) *workerClient {
	base := NormalizeAddr(addr)
	wc := &workerClient{base: base, stats: WorkerStats{Addr: base}}
	wc.stream, wc.streamErr = newStreamClient(base)
	return wc
}

func (wc *workerClient) noteSuccess(rtt time.Duration, ranges, worlds int) {
	wc.mu.Lock()
	wc.stats.Requests++
	wc.stats.RangesServed += uint64(ranges)
	wc.stats.WorldsServed += uint64(worlds)
	wc.stats.LastRTT = rtt
	wc.stats.LastOK = time.Now()
	wc.stats.LastErr = ""
	wc.mu.Unlock()
}

func (wc *workerClient) noteFailure(err error) {
	wc.mu.Lock()
	wc.stats.Requests++
	wc.stats.Failures++
	wc.stats.LastErr = err.Error()
	wc.mu.Unlock()
}

// noteDuplicate records a suppressed hedged duplicate: a request that
// completed fine but lost the race. It counts as a request served, not as
// a failure — the /statsz failure counter is reserved for actual faults.
func (wc *workerClient) noteDuplicate() {
	wc.mu.Lock()
	wc.stats.Requests++
	wc.stats.Duplicates++
	wc.mu.Unlock()
}

// noteIntegrityReject annotates the current failure as a CRC rejection
// (noteFailure separately counts the request and failure).
func (wc *workerClient) noteIntegrityReject() {
	wc.mu.Lock()
	wc.stats.IntegrityRejects++
	wc.mu.Unlock()
}

func (wc *workerClient) snapshot() WorkerStats {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.stats
}

// do GETs one JSON endpoint (the ping) and decodes the response into out.
func (wc *workerClient) do(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wc.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := pingClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return fmt.Errorf("%s%s: %s", wc.base, path, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// call runs one tally request over the worker's stream, bounded by the
// per-attempt timeout, and cross-checks the answered world count. sp,
// when non-nil, supplies the trace ref that rides the REQ frame
// (flagTrace) and receives no annotation itself — the worker's
// annotation comes back as the second result for the caller to attach.
// It records no stats — the scatter attempt that issued it decides
// whether the outcome was a win, a suppressed duplicate or a failure.
func (wc *workerClient) call(ctx context.Context, timeout time.Duration, req *TallyRequest, sp *obs.Span) (*TallyResponse, *workerAnnot, error) {
	if wc.streamErr != nil {
		return nil, nil, wc.streamErr
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	worlds := 0
	for _, rg := range req.Ranges {
		worlds += rg.Worlds()
	}
	var ref *traceRef
	if tid, sid := sp.WireIDs(); tid != 0 {
		ref = &traceRef{TraceID: tid, SpanID: sid}
	}
	resp, annot, err := wc.stream.call(ctx, req, ref)
	if err != nil {
		return nil, nil, err
	}
	if resp.Worlds != worlds {
		return nil, nil, fmt.Errorf("%s: tallied %d worlds, asked for %d", wc.base, resp.Worlds, worlds)
	}
	return resp, annot, nil
}

// ---- fleet: elastic membership -------------------------------------------

type memberState int32

const (
	memberUp memberState = iota
	memberDown
	memberRemoved
	memberQuarantined
)

func (s memberState) String() string {
	switch s {
	case memberUp:
		return "up"
	case memberDown:
		return "down"
	case memberQuarantined:
		return "quarantined"
	default:
		return "removed"
	}
}

// member is one fleet slot. Slots are append-only: a removed worker keeps
// its slot (so owner bookkeeping stays valid) and re-adding the same
// address revives it.
type member struct {
	wc *workerClient
	// jitterKey is a stable per-address hash mixed into the backoff
	// jitter, so a fleet of coordinators restarted together does not
	// reopen every breaker in lockstep.
	jitterKey uint64
	state     atomic.Int32

	// Circuit-breaker state. Failures here are tally failures (the
	// traffic-bearing path); the ping loop manages up/down separately, and
	// a successful ping also closes the breaker (recovery evidence).
	bmu         sync.Mutex
	consecFails int
	trips       uint64
	openUntil   time.Time
	tripTimes   []time.Time // recent trips inside the quarantine window
}

func (m *member) up() bool { return memberState(m.state.Load()) == memberUp }

// breakerOpen reports whether the breaker holds the member out of
// assignment at now.
func (m *member) breakerOpen(now time.Time) bool {
	m.bmu.Lock()
	defer m.bmu.Unlock()
	return now.Before(m.openUntil)
}

// breakerReset closes the breaker on success (a served tally or a passing
// ping).
func (m *member) breakerReset() {
	m.bmu.Lock()
	m.consecFails = 0
	m.openUntil = time.Time{}
	m.bmu.Unlock()
}

// recordFailure registers one tally failure against the breaker. At
// BreakerThreshold consecutive failures it trips: the member is held out
// for an exponentially growing backoff (doubling per further consecutive
// failure, capped at breakerMaxBackoff) plus a deterministic jitter in
// [0, backoff/2] seeded from (seed, address, trip count) — reproducible
// under a chaos seed, yet de-synchronized across workers. Reports whether
// this failure tripped the breaker, and whether the trip rate inside
// quarantineWindow crossed the flap-quarantine bar.
func (m *member) recordFailure(opts *CoordinatorOptions, seed uint64) (tripped, quarantine bool) {
	now := time.Now()
	m.bmu.Lock()
	defer m.bmu.Unlock()
	m.consecFails++
	if m.consecFails < opts.BreakerThreshold {
		return false, false
	}
	m.trips++
	exp := m.consecFails - opts.BreakerThreshold
	if exp > 20 {
		exp = 20
	}
	backoff := opts.BreakerBackoff << exp
	if backoff <= 0 || backoff > breakerMaxBackoff {
		backoff = breakerMaxBackoff
	}
	jitter := time.Duration(rng.Mix64(seed^m.jitterKey^m.trips) % uint64(backoff/2+1))
	m.openUntil = now.Add(backoff + jitter)
	m.tripTimes = append(m.tripTimes, now)
	cut := now.Add(-quarantineWindow)
	for len(m.tripTimes) > 0 && m.tripTimes[0].Before(cut) {
		m.tripTimes = m.tripTimes[1:]
	}
	return true, opts.QuarantineTrips > 0 && len(m.tripTimes) >= opts.QuarantineTrips
}

// breakerSnapshot reports the trip count and open state for /statsz.
func (m *member) breakerSnapshot() (trips uint64, open bool) {
	now := time.Now()
	m.bmu.Lock()
	defer m.bmu.Unlock()
	return m.trips, now.Before(m.openUntil)
}

// fleet is the membership table shared by a Coordinator and all its
// forks: the member slots, the sticky block-ownership map, and the
// fabric-level counters. Ownership is sticky on purpose — a block keeps
// its worker (whose world store keeps the block's worlds warm) until that
// worker goes down or leaves, and only then is it re-striped onto the
// survivors.
// Assignment never affects results, only which worker computes which
// integer sums.
type fleet struct {
	mu      sync.Mutex
	members []*member
	owners  map[int]int // block index → member slot

	hedges           atomic.Uint64
	duplicates       atomic.Uint64
	rescatters       atomic.Uint64
	breakerTrips     atomic.Uint64
	quarantines      atomic.Uint64
	integrityRejects atomic.Uint64
	audits           atomic.Uint64
	auditDivergences atomic.Uint64
}

// addrHash is the stable per-address key of the breaker jitter (FNV-1a).
func addrHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func newFleet(addrs []string) *fleet {
	f := &fleet{owners: make(map[int]int)}
	for _, addr := range addrs {
		if strings.TrimSpace(addr) != "" {
			f.add(addr)
		}
	}
	return f
}

// add registers (or revives) the worker at addr and returns its
// normalized base URL.
func (f *fleet) add(addr string) string {
	base := NormalizeAddr(addr)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.members {
		if m.wc.base == base {
			// Revival is also the operator's quarantine-clear: AddWorker on
			// a quarantined or removed address returns it to service with a
			// closed breaker.
			m.state.Store(int32(memberUp))
			m.breakerReset()
			return base
		}
	}
	m := &member{wc: newWorkerClient(base), jitterKey: addrHash(base)}
	m.state.Store(int32(memberUp))
	f.members = append(f.members, m)
	return base
}

// remove marks the worker at addr as removed and closes its stream;
// reports whether it was a member.
func (f *fleet) remove(addr string) bool {
	base := NormalizeAddr(addr)
	f.mu.Lock()
	var gone *member
	for _, m := range f.members {
		if m.wc.base == base && memberState(m.state.Load()) != memberRemoved {
			m.state.Store(int32(memberRemoved))
			gone = m
			break
		}
	}
	f.mu.Unlock()
	if gone != nil && gone.wc.stream != nil {
		gone.wc.stream.close()
	}
	return gone != nil
}

// active returns the non-removed members (up or down).
func (f *fleet) active() []*member {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*member, 0, len(f.members))
	for _, m := range f.members {
		if memberState(m.state.Load()) != memberRemoved {
			out = append(out, m)
		}
	}
	return out
}

func (f *fleet) liveSlotsLocked() []int {
	var live []int
	for s, m := range f.members {
		if m.up() {
			live = append(live, s)
		}
	}
	return live
}

// availableSlotsLocked is liveSlotsLocked minus breaker-open members: the
// slots a new block may be assigned to at full confidence.
func (f *fleet) availableSlotsLocked(now time.Time) []int {
	var avail []int
	for s, m := range f.members {
		if m.up() && !m.breakerOpen(now) {
			avail = append(avail, s)
		}
	}
	return avail
}

// assign maps each block index to its owning slot, keeping live sticky
// owners and striping unowned blocks across the live members
// (live[(bi+rot) % len(live)]; block bi holds worlds [bi*BlockWorlds,
// (bi+1)*BlockWorlds)). Only unowned blocks are striped — blocks of new
// stream growth, or blocks whose owner left or went down — so a block
// keeps its worker, and the worker keeps the block's worlds warm in its
// store, across queries, stream extensions and membership changes.
// exclude[bi] names a slot the block must avoid when any alternative
// exists: retry rounds use it to move a failed worker's blocks.
// Breaker-open members are skipped — their blocks re-stripe onto healthy
// workers for the duration of the backoff — unless every live member is
// open, in which case all of them are forced half-open (a fleet must
// never starve itself on its own breakers; the next attempt is the
// probe). Returns slot → ascending block indices.
func (f *fleet) assign(bis []int, exclude map[int]int, rot int) (map[int][]int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	live := f.availableSlotsLocked(now)
	forced := len(live) == 0
	if forced {
		live = f.liveSlotsLocked()
	}
	if len(live) == 0 {
		return nil, errors.New("shard: no live workers")
	}
	usable := func(s int) bool {
		m := f.members[s]
		return m.up() && (forced || !m.breakerOpen(now))
	}
	out := make(map[int][]int)
	for _, bi := range bis {
		if s, owned := f.owners[bi]; owned && usable(s) {
			if ex, excluded := exclude[bi]; !excluded || ex != s || len(live) == 1 {
				out[s] = append(out[s], bi)
				continue
			}
		}
		pick := live[(bi+rot)%len(live)]
		if ex, excluded := exclude[bi]; excluded && pick == ex && len(live) > 1 {
			pick = live[(bi+rot+1)%len(live)]
		}
		f.owners[bi] = pick
		out[pick] = append(out[pick], bi)
	}
	return out, nil
}

// hedgeTarget picks a live member other than slot (cyclically next), or
// nil when the fleet has no alternative to hedge against. Breaker-open
// members are never hedged against — a hedge exists to beat a straggler,
// not to probe a failing worker.
func (f *fleet) hedgeTarget(slot int) *member {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	n := len(f.members)
	for i := 1; i <= n; i++ {
		m := f.members[(slot+i)%n]
		if m.up() && !m.breakerOpen(now) && m != f.members[slot%n] {
			return m
		}
	}
	return nil
}

func (f *fleet) member(slot int) *member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[slot]
}

func (f *fleet) close() {
	for _, m := range f.active() {
		if m.wc.stream != nil {
			m.wc.stream.close()
		}
	}
}

// FabricStats are coordinator-level counters of the scatter fabric,
// shared across forks.
type FabricStats struct {
	// Hedges counts hedge attempts launched against stragglers.
	Hedges uint64
	// Duplicates counts hedged answers that lost the race and were
	// suppressed before merging (exactly-once bookkeeping).
	Duplicates uint64
	// Rescatters counts world blocks repooled onto another worker after
	// a failed attempt.
	Rescatters uint64
	// BreakerTrips counts circuit-breaker trips across the fleet.
	BreakerTrips uint64
	// Quarantines counts workers moved into the quarantined state
	// (flapping past the trip bar, or diverging under audit).
	Quarantines uint64
	// IntegrityRejects counts frames rejected for a CRC32-C mismatch —
	// every one was re-scattered, never merged.
	IntegrityRejects uint64
	// Audits counts sampled audit re-executions; AuditDivergences counts
	// the ones whose byte-for-byte tally comparison failed (each triggers
	// a local referee recompute and a quarantine).
	Audits           uint64
	AuditDivergences uint64
}

// Coordinator implements the estimator surface over a fleet of shard
// workers: every query becomes one or more scatter rounds of disjoint
// block-aligned world ranges, and the gathered integer tallies are summed
// into exactly the counts a single-process run over the same stream
// produces — so estimates are bit-identical to conn.MonteCarlo (and the
// knn / influence / metrics entry points) for every worker count, every
// partitioning, every membership change and every hedge outcome, and
// clustering drivers consume a Coordinator wherever they would a
// conn.MonteCarlo (it implements conn.ContextOracle).
//
// Failure handling never trades accuracy: a failed worker's blocks are
// re-scattered onto other live workers, a hedged straggler's duplicate
// answer is suppressed by the group's win flag, and each block is merged
// exactly once (scatter audits the merged world count) or the whole call
// errors with no estimate. The fleet is elastic — AddWorker / RemoveWorker
// and the ping refresher change membership between (and during) queries
// with no restart; with no live workers configured the Coordinator
// degrades to the in-process estimator over the shared world store of the
// same (graph, seed).
//
// Center queries run on conn.MonteCarlo's tally cache: while the fleet has
// no worker they go to a plain local estimator, otherwise to one whose
// conn.Extender is the coordinator's scatter (extend), so a progressive
// clustering schedule scatters only the new worlds of each phase. Safe for
// concurrent use.
type Coordinator struct {
	name   string
	g      *graph.Uncertain
	seed   uint64
	store  *worldstore.Store
	local  *conn.MonteCarlo // center queries while the fleet has no worker
	remote *conn.MonteCarlo // center queries over the fleet, extended by scatter
	fleet  *fleet
	opts   CoordinatorOptions
}

var _ conn.ContextOracle = (*Coordinator)(nil)

// NewCoordinator builds a coordinator for the graph served under name by
// the given workers. g and seed must match what the workers were started
// with (Ping verifies). With no workers, every query runs on the local
// in-process estimator instead — the single-binary degenerate deployment.
func NewCoordinator(name string, g *graph.Uncertain, seed uint64, workerAddrs []string, opts CoordinatorOptions) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		name:  name,
		g:     g,
		seed:  seed,
		store: worldstore.Shared(g, seed),
		fleet: newFleet(workerAddrs),
		opts:  opts,
	}
	c.newEstimators()
	return c
}

// newEstimators gives c a fresh, empty pair of center-query estimators.
func (c *Coordinator) newEstimators() {
	c.local = conn.NewMonteCarlo(c.g, c.seed)
	c.remote = conn.NewMonteCarloExtended(c.g, c.seed, c.extend)
}

// Fork returns a coordinator sharing this one's fleet (workers, membership
// and health stats) but with fresh, private tally caches — the sharded
// analogue of building a private conn.MonteCarlo for one clustering run,
// so the run's result depends only on (graph, seed, request), never on
// which centers other traffic warmed first.
func (c *Coordinator) Fork() *Coordinator {
	fork := *c
	fork.newEstimators()
	return &fork
}

// Sharded reports whether the coordinator has (non-removed) workers; false
// means every query runs locally.
func (c *Coordinator) Sharded() bool { return len(c.fleet.active()) > 0 }

// NumNodes implements conn.Oracle.
func (c *Coordinator) NumNodes() int { return c.g.NumNodes() }

// Graph returns the underlying graph.
func (c *Coordinator) Graph() *graph.Uncertain { return c.g }

// Store exposes the local shared world store (used by consumers that stay
// local, and for block-size agreement with the workers).
func (c *Coordinator) Store() *worldstore.Store { return c.store }

// Workers returns the current (non-removed) worker base URLs.
func (c *Coordinator) Workers() []string {
	members := c.fleet.active()
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = m.wc.base
	}
	return out
}

// WorkerStats returns a health snapshot per worker. Unlike Workers it
// includes removed members (state "removed"), so operators watching
// /statsz during a membership change see the departure rather than a
// silently shrinking list.
func (c *Coordinator) WorkerStats() []WorkerStats {
	c.fleet.mu.Lock()
	members := append([]*member(nil), c.fleet.members...)
	c.fleet.mu.Unlock()
	out := make([]WorkerStats, len(members))
	for i, m := range members {
		out[i] = m.wc.snapshot()
		out[i].State = memberState(m.state.Load()).String()
		out[i].BreakerTrips, out[i].BreakerOpen = m.breakerSnapshot()
	}
	return out
}

// FabricStats returns the fabric-level hedge/duplicate/rescatter counters.
func (c *Coordinator) FabricStats() FabricStats {
	return FabricStats{
		Hedges:           c.fleet.hedges.Load(),
		Duplicates:       c.fleet.duplicates.Load(),
		Rescatters:       c.fleet.rescatters.Load(),
		BreakerTrips:     c.fleet.breakerTrips.Load(),
		Quarantines:      c.fleet.quarantines.Load(),
		IntegrityRejects: c.fleet.integrityRejects.Load(),
		Audits:           c.fleet.audits.Load(),
		AuditDivergences: c.fleet.auditDivergences.Load(),
	}
}

// recordFault feeds one genuine tally failure into the worker's breaker
// and the fleet counters, quarantining a flapper when its trip rate
// crosses the bar. Integrity failures are additionally counted — they are
// the wire's bit-rot signal and operators alert on them separately.
func (c *Coordinator) recordFault(m *member, err error) {
	if errors.Is(err, errIntegrity) {
		c.fleet.integrityRejects.Add(1)
		m.wc.noteIntegrityReject()
	}
	tripped, quarantine := m.recordFailure(&c.opts, c.seed)
	if tripped {
		c.fleet.breakerTrips.Add(1)
	}
	if quarantine {
		c.quarantineMember(m)
	}
}

// quarantineMember sidelines a worker until an operator re-adds it:
// quarantined members receive no assignments, hedges or audits, and the
// ping loop does not revive them. Removed members stay removed.
func (c *Coordinator) quarantineMember(m *member) {
	if m.state.CompareAndSwap(int32(memberUp), int32(memberQuarantined)) ||
		m.state.CompareAndSwap(int32(memberDown), int32(memberQuarantined)) {
		c.fleet.quarantines.Add(1)
		if m.wc.stream != nil {
			m.wc.stream.close()
		}
	}
}

// auditPick decides — deterministically, from the coordinator seed and
// the group's leading world index — whether a completed scatter group is
// sampled for an audit re-execution. Clock- and schedule-free selection
// keeps chaos runs replayable: the same seed audits the same groups.
func (c *Coordinator) auditPick(g *scatterGroup) bool {
	if len(g.ranges) == 0 {
		return false
	}
	h := rng.Mix64(c.seed ^ uint64(g.ranges[0].Lo)*0x9e3779b97f4a7c15)
	return float64(h>>11)/(1<<53) < c.opts.AuditFraction
}

// auditGroup re-executes a sampled group's ranges on a second worker and
// compares the raw tallies byte-for-byte (via the canonical v2 response
// encoding — the same bytes that cross the wire). Agreement returns nil
// and the original answer is merged. On divergence the coordinator
// recomputes the ranges locally as referee, quarantines whichever
// worker(s) disagree with the referee, and returns the verified tallies
// for merging — a diverging worker's answer never reaches an estimate.
// Any audit infrastructure failure (no second worker, auditor error)
// also returns nil: audits must never fail a query that already has a
// well-formed answer.
func (c *Coordinator) auditGroup(ctx context.Context, base *TallyRequest, g *scatterGroup, resp *TallyResponse) *TallyResponse {
	auditor := c.fleet.hedgeTarget(g.ownerSlot)
	if auditor == nil {
		return nil // one-worker fleet: nothing independent to compare
	}
	c.fleet.audits.Add(1)
	sp := obs.SpanFromContext(ctx).StartChild("audit")
	defer sp.End()
	sp.Set("owner", g.owner.wc.base)
	sp.Set("auditor", auditor.wc.base)
	sp.Set("worlds", int64(g.worlds))
	wreq := *base
	wreq.Ranges = g.ranges
	aresp, _, err := auditor.wc.call(ctx, c.opts.RequestTimeout, &wreq, sp)
	if err == nil {
		if cerr := checkTally(c.g.NumNodes(), &wreq, aresp); cerr != nil {
			err = fmt.Errorf("%s: malformed audit response: %w", auditor.wc.base, cerr)
		}
	}
	if err != nil {
		sp.Set("outcome", "auditor_failed")
		sp.Set("error", err.Error())
		auditor.wc.noteFailure(err)
		c.recordFault(auditor, err)
		return nil
	}
	canon := func(r *TallyResponse) []byte { return encodeResponseFrame(0, wreq.Kind, r) }
	ownerBytes, auditBytes := canon(resp), canon(aresp)
	if bytes.Equal(ownerBytes, auditBytes) {
		sp.Set("outcome", "agreement")
		return nil // independent agreement; merge the original
	}
	sp.Set("outcome", "divergence")
	c.fleet.auditDivergences.Add(1)
	// Referee: recompute the disputed ranges locally from the shared
	// (seed, index) world definition — the ground truth both workers
	// were supposed to tally.
	ref, err := tallyRanges(ctx, c.store, &wreq)
	if err != nil {
		return nil // referee interrupted (ctx done); keep the original
	}
	refBytes := canon(ref)
	if !bytes.Equal(ownerBytes, refBytes) {
		c.quarantineMember(g.owner)
	}
	if !bytes.Equal(auditBytes, refBytes) {
		c.quarantineMember(auditor)
	}
	return ref
}

// AddWorker registers (or revives) a worker — the join half of elastic
// membership. The new member starts as "up" and receives unowned blocks
// on the very next scatter round; already-owned blocks stay with their
// sticky owners, so a join re-stripes nothing that is warm elsewhere.
// Returns the normalized base URL.
func (c *Coordinator) AddWorker(addr string) string { return c.fleet.add(addr) }

// RemoveWorker administratively removes a worker (the leave half). Its
// blocks become unowned and re-stripe onto the survivors on the next
// scatter round; in-flight requests against it fall to the retry rounds.
// Reports whether addr was a member.
func (c *Coordinator) RemoveWorker(addr string) bool { return c.fleet.remove(addr) }

// Close tears down the persistent worker streams. The coordinator remains
// usable — streams re-dial on the next query — so Close is for orderly
// shutdown.
func (c *Coordinator) Close() { c.fleet.close() }

// Ping verifies every current worker is reachable and serves the
// coordinator's graph with matching identity (nodes, edges, seed) — the
// readiness probe of the sharded deployment. Workers are pinged
// concurrently, so the probe costs one round-trip of the slowest worker,
// not the sum. Each worker's membership state is refreshed from the
// outcome (up on success, down on failure). It returns a joined error of
// the unreachable or mismatched workers; nil means all workers agree on
// the world stream.
func (c *Coordinator) Ping(ctx context.Context) error {
	members := c.fleet.active()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			errs[i] = c.pingMember(ctx, m)
		}(i, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// StartPings runs Ping every interval until the returned stop
// function is called. Each probe is bounded by RequestTimeout.
func (c *Coordinator) StartPings(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), c.opts.RequestTimeout)
				_ = c.Ping(ctx)
				cancel()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// pingMember pings one worker, verifies its graph identity, records the
// outcome in its health stats and refreshes its membership state.
func (c *Coordinator) pingMember(ctx context.Context, m *member) error {
	wc := m.wc
	var resp PingResponse
	t0 := time.Now()
	werr := wc.do(ctx, PathPing, &resp)
	if werr == nil {
		found := false
		for _, pg := range resp.Graphs {
			if pg.Name != c.name {
				continue
			}
			found = true
			if pg.Nodes != c.g.NumNodes() || pg.Edges != c.g.NumEdges() || pg.Seed != c.seed {
				werr = fmt.Errorf(
					"%s: graph %q mismatch: worker has %d nodes / %d edges / seed %d, coordinator %d / %d / %d",
					wc.base, c.name, pg.Nodes, pg.Edges, pg.Seed,
					c.g.NumNodes(), c.g.NumEdges(), c.seed)
			}
		}
		if !found && werr == nil {
			werr = fmt.Errorf("%s: worker does not serve graph %q", wc.base, c.name)
		}
	}
	// Quarantine is sticky against pings on purpose: a flapping worker
	// passes plenty of pings between its failures, and a divergent worker
	// pings perfectly — only the operator (AddWorker) clears it.
	if st := memberState(m.state.Load()); st != memberRemoved && st != memberQuarantined {
		if werr != nil {
			m.state.Store(int32(memberDown))
		} else {
			m.state.Store(int32(memberUp))
		}
	}
	if werr != nil {
		wc.noteFailure(werr)
		return werr
	}
	wc.noteSuccess(time.Since(t0), 0, 0)
	m.breakerReset() // a passing ping is recovery evidence: close the breaker
	return nil
}

// ---- scatter -------------------------------------------------------------

// scatterGroup is one worker's share of a scatter round: the blocks it
// owns, coalesced into ascending ranges. The win flag admits exactly one
// answer when a hedge races a straggler.
type scatterGroup struct {
	ownerSlot int
	owner     *member
	bis       []int
	ranges    []Range
	worlds    int
	won       atomic.Bool
}

type groupOutcome struct {
	g    *scatterGroup
	resp *TallyResponse
	err  error
}

type attemptResult struct {
	resp *TallyResponse
	err  error
}

// errDuplicate marks a hedged answer that lost the race; suppressed
// before merging and never counted as a worker failure.
var errDuplicate = errors.New("shard: duplicate hedged answer suppressed")

// scatter executes one tally shape over the world range [lo, hi): the
// range is cut into store-aligned blocks, each block is assigned to its
// (sticky) owner in the fleet, every worker answers its coalesced ranges
// over its persistent stream in parallel, and merge is called —
// serialized — once per winning response. Blocks of a failed worker are
// re-scattered onto other live workers in up to opts.Retries further
// rounds; stragglers may be hedged (HedgeDelay) with the duplicate answer
// suppressed. A block is merged exactly once or the whole call errors —
// scatter audits that the merged world total equals hi-lo — so partial
// failures, membership changes and hedges can never double- or
// under-count. The request's Ranges field is filled per worker; every
// other field is forwarded as given.
func (c *Coordinator) scatter(ctx context.Context, req TallyRequest, lo, hi int, merge func(*TallyResponse)) error {
	if hi <= lo {
		return nil
	}
	ctx, ssp := obs.StartSpan(ctx, "scatter")
	defer ssp.End()
	ssp.Set("kind", req.Kind)
	ssp.Set("worlds", int64(hi-lo))
	req.Graph = c.name
	bw := c.store.BlockWorlds()
	var pool []int
	for bi := lo / bw; bi*bw < hi; bi++ {
		pool = append(pool, bi)
	}
	exclude := make(map[int]int)
	mergedWorlds := 0
	rescattered := 0
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries && len(pool) > 0; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			rescattered += len(pool)
			if rescattered > c.opts.RetryBudget {
				return fmt.Errorf("shard: retry budget exhausted (%d block re-scatters > %d): %w",
					rescattered, c.opts.RetryBudget, lastErr)
			}
			c.fleet.rescatters.Add(uint64(len(pool)))
		}
		assign, err := c.fleet.assign(pool, exclude, attempt)
		if err != nil {
			return err // no live workers
		}
		// One span per scatter round (the retry loop's iteration): round 0
		// is the primary fan-out, later rounds re-scatter failed blocks.
		// Per-worker attempts hang off it as child spans via rctx.
		rctx, rsp := obs.StartSpan(ctx, "scatter_round")
		rsp.Set("round", int64(attempt))
		rsp.Set("blocks", int64(len(pool)))
		rsp.Set("workers", int64(len(assign)))
		slots := make([]int, 0, len(assign))
		for s := range assign {
			slots = append(slots, s)
		}
		sort.Ints(slots)
		results := make(chan groupOutcome, len(slots))
		for _, s := range slots {
			bis := assign[s]
			g := &scatterGroup{ownerSlot: s, owner: c.fleet.member(s), bis: bis, ranges: blockRanges(bis, lo, hi, bw)}
			for _, rg := range g.ranges {
				g.worlds += rg.Worlds()
			}
			go c.runGroup(rctx, &req, g, results)
		}
		pool = pool[:0]
		for range slots {
			out := <-results
			if out.err != nil {
				lastErr = out.err
				pool = append(pool, out.g.bis...)
				for _, bi := range out.g.bis {
					exclude[bi] = out.g.ownerSlot
				}
				continue
			}
			resp := out.resp
			if c.opts.AuditFraction > 0 && c.auditPick(out.g) {
				if v := c.auditGroup(rctx, &req, out.g, resp); v != nil {
					resp = v
				}
			}
			mergedWorlds += resp.Worlds
			merge(resp)
		}
		sort.Ints(pool)
		if len(pool) > 0 {
			rsp.Set("failed_blocks", int64(len(pool)))
			if lastErr != nil {
				rsp.Set("error", lastErr.Error())
			}
		}
		rsp.End()
	}
	if len(pool) > 0 {
		return fmt.Errorf("shard: %d world block(s) unserved after %d attempts: %w",
			len(pool), c.opts.Retries+1, lastErr)
	}
	if mergedWorlds != hi-lo {
		return fmt.Errorf("shard: merged %d worlds, want %d: exactly-once accounting violated", mergedWorlds, hi-lo)
	}
	return nil
}

// blockRanges cuts ascending block indices into the world ranges they
// cover within [lo, hi): block bi holds worlds [bi*bw, (bi+1)*bw), clipped
// to the query range, and adjacent blocks coalesce into one range.
func blockRanges(bis []int, lo, hi, bw int) []Range {
	var out []Range
	for _, bi := range bis {
		rg := Range{Lo: max(bi*bw, lo), Hi: min((bi+1)*bw, hi)}
		if k := len(out); k > 0 && out[k-1].Hi == rg.Lo {
			out[k-1].Hi = rg.Hi
		} else {
			out = append(out, rg)
		}
	}
	return out
}

// runGroup resolves one scatter group: the owner answers, or — after
// HedgeDelay — a second live worker races it and the first answer wins.
// Exactly one outcome is delivered to results. A failed primary does not
// trigger the hedge (failures belong to the retry rounds; hedging is
// straggler mitigation only).
func (c *Coordinator) runGroup(ctx context.Context, base *TallyRequest, g *scatterGroup, results chan<- groupOutcome) {
	wreq := *base
	wreq.Ranges = g.ranges
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	resCh := make(chan attemptResult, 2)
	launched := 1
	go func() { resCh <- c.attemptWorker(actx, g, g.owner, &wreq, false) }()
	var hedgeC <-chan time.Time
	var hedge *member
	if c.opts.HedgeDelay > 0 {
		if hm := c.fleet.hedgeTarget(g.ownerSlot); hm != nil {
			hedge = hm
			t := time.NewTimer(c.opts.HedgeDelay)
			defer t.Stop()
			hedgeC = t.C
		}
	}
	var firstErr error
	done := 0
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			c.fleet.hedges.Add(1)
			launched++
			go func() { resCh <- c.attemptWorker(actx, g, hedge, &wreq, true) }()
		case r := <-resCh:
			done++
			if r.resp != nil {
				results <- groupOutcome{g: g, resp: r.resp}
				return // the twin, if any, self-reports as a duplicate
			}
			if firstErr == nil || errors.Is(firstErr, errDuplicate) {
				firstErr = r.err
			}
			hedgeC = nil // a failed primary falls to the retry rounds
			if done == launched {
				results <- groupOutcome{g: g, err: firstErr}
				return
			}
		}
	}
}

// attemptWorker runs one attempt of a group against m and settles its
// stats: the race winner records a success, a losing duplicate records a
// duplicate (never a failure — that was the /statsz double-count bug), a
// post-win error (the winner cancelled us) records nothing, and only a
// genuine pre-win fault records a failure. On a traced query the attempt
// is a child span of the scatter round, carrying the worker's wire-borne
// annotation (worker time, worlds scanned, store tier) — the span's own
// duration is the coordinator-observed RTT, so no clock agreement with
// the worker is needed.
func (c *Coordinator) attemptWorker(ctx context.Context, g *scatterGroup, m *member, req *TallyRequest, hedged bool) attemptResult {
	sp := obs.SpanFromContext(ctx).StartChild("worker")
	defer sp.End()
	if sp != nil {
		sp.SetAll(
			obs.Attr{Key: "addr", Value: m.wc.base},
			obs.Attr{Key: "blocks", Value: int64(len(g.bis))},
			obs.Attr{Key: "worlds", Value: int64(g.worlds)},
		)
		if hedged {
			sp.Set("hedged", true)
		}
	}
	t0 := time.Now()
	resp, annot, err := m.wc.call(ctx, c.opts.RequestTimeout, req, sp)
	rtt := time.Since(t0)
	if annot != nil && sp != nil {
		sp.SetAll(
			obs.Attr{Key: "worker_elapsed_ms", Value: float64(annot.ElapsedNS) / 1e6},
			obs.Attr{Key: "worker_worlds_scanned", Value: int64(annot.Worlds)},
			obs.Attr{Key: "store_ram_hits", Value: int64(annot.StoreHits)},
			obs.Attr{Key: "store_disk_hits", Value: int64(annot.DiskHits)},
			obs.Attr{Key: "store_recomputes", Value: int64(annot.Recomputes)},
			obs.Attr{Key: "store_materializations", Value: int64(annot.Materializations)},
		)
	}
	if err == nil {
		if cerr := checkTally(c.g.NumNodes(), req, resp); cerr != nil {
			err = fmt.Errorf("%s: malformed tally response: %w", m.wc.base, cerr)
		}
	}
	if err == nil {
		if f := c.opts.OnWorkerRTT; f != nil {
			f(m.wc.base, rtt)
		}
		if g.won.CompareAndSwap(false, true) {
			sp.Set("outcome", "won")
			m.wc.noteSuccess(rtt, len(req.Ranges), g.worlds)
			m.breakerReset()
			return attemptResult{resp: resp}
		}
		sp.Set("outcome", "duplicate")
		m.wc.noteDuplicate()
		c.fleet.duplicates.Add(1)
		m.breakerReset() // a correct duplicate is still proof of health
		return attemptResult{err: errDuplicate}
	}
	sp.Set("error", err.Error())
	if g.won.Load() {
		sp.Set("outcome", "moot")
		return attemptResult{err: err} // moot: the race is already settled
	}
	sp.Set("outcome", "failed")
	m.wc.noteFailure(err)
	c.recordFault(m, err)
	return attemptResult{err: err}
}

// ---- conn.ContextOracle --------------------------------------------------

// estimator returns the estimator that answers center queries.
func (c *Coordinator) estimator() *conn.MonteCarlo {
	if c.Sharded() {
		return c.remote
	}
	return c.local
}

// FromCenter implements conn.Oracle.
func (c *Coordinator) FromCenter(ctr graph.NodeID, depth int, r int) []float64 {
	return c.estimator().FromCenter(ctr, depth, r)
}

// FromCenters implements conn.Oracle.
func (c *Coordinator) FromCenters(cs []graph.NodeID, depth int, r int) [][]float64 {
	return c.estimator().FromCenters(cs, depth, r)
}

// FromCenterCtx implements conn.ContextOracle.
func (c *Coordinator) FromCenterCtx(ctx context.Context, ctr graph.NodeID, depth int, r int) ([]float64, error) {
	return c.estimator().FromCenterCtx(ctx, ctr, depth, r)
}

// FromCentersCtx implements conn.ContextOracle, with conn.MonteCarlo's
// caching and higher-precision contract.
func (c *Coordinator) FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth int, r int) ([][]float64, error) {
	return c.estimator().FromCentersCtx(ctx, cs, depth, r)
}

// extend is the conn.Extender of the sharded estimator: it scatters worlds
// [lo[j], r) of every center cs[j] and adds the gathered counts into
// counts[j]. Centers at the same progress share one scatter; every group
// gathers into one scratch buffer that is folded into counts only once
// every group has succeeded, so cancellation and worker failures withhold
// answers, never corrupt tallies.
func (c *Coordinator) extend(ctx context.Context, cs []graph.NodeID, depth int, lo []int, r int, counts [][]int32) error {
	groups := make(map[int][]int) // progress → positions in cs
	for j, l := range lo {
		groups[l] = append(groups[l], j)
	}
	los := make([]int, 0, len(groups))
	for l := range groups {
		los = append(los, l)
	}
	sort.Ints(los)
	req := TallyRequest{Kind: KindConnected}
	if depth >= 0 {
		req = TallyRequest{Kind: KindWithin, Depth: depth}
	}
	n := c.g.NumNodes()
	scratch := make([]int32, len(cs)*n)
	worlds := 0
	for _, l := range los {
		group := groups[l]
		req.Centers = make([]graph.NodeID, len(group))
		for i, j := range group {
			req.Centers[i] = cs[j]
		}
		// scatter calls merge serially: no lock on scratch.
		err := c.scatter(ctx, req, l, r, func(resp *TallyResponse) {
			for i, j := range group {
				row := scratch[j*n : (j+1)*n]
				for u, cnt := range resp.Counts[i] {
					row[u] += cnt
				}
			}
		})
		if err != nil {
			return err
		}
		worlds += r - l
	}
	// The fold of the gathered scratch into the cached tallies — the
	// "merge" step of the scatter/gather pipeline, separate from the
	// scatter spans so an operator sees gather time and fold time apart.
	_, msp := obs.StartSpan(ctx, "merge")
	msp.Set("centers", int64(len(cs)))
	msp.Set("worlds", int64(worlds))
	for j, row := range counts {
		for u, cnt := range scratch[j*n : (j+1)*n] {
			row[u] += cnt
		}
	}
	msp.End()
	return nil
}

// gather computes one tally over the worlds [0, r): on the local store
// while the fleet is empty, otherwise by scattering it over the fleet and
// merging the per-group answers. Both paths sum the same integers, so the
// gathered tally — and every estimate derived from it — is identical for
// every worker count. The request is checked first, so a malformed one
// fails here instead of failing on every worker. An empty range (r <= 0)
// also stays local: it scans nothing, and tallyRanges still answers the
// kind's payload shape for it.
func (c *Coordinator) gather(ctx context.Context, req TallyRequest, r int) (*TallyResponse, error) {
	if err := validTally(c.g, &req); err != nil {
		return nil, err
	}
	if r <= 0 || !c.Sharded() {
		req.Ranges = []Range{{Lo: 0, Hi: r}}
		return tallyRanges(ctx, c.store, &req)
	}
	// scatter calls merge serially: no lock on acc.
	acc := kindNamed(req.Kind).zero(c.g.NumNodes(), &req)
	if err := c.scatter(ctx, req, 0, r, func(resp *TallyResponse) { mergeTally(acc, resp, req.Kind) }); err != nil {
		return nil, err
	}
	return acc, nil
}

// ratio gathers a one-row totals tally and divides it by r.
func (c *Coordinator) ratio(ctx context.Context, req TallyRequest, r int) (float64, error) {
	t, err := c.gather(ctx, req, r)
	if err != nil {
		return 0, err
	}
	return float64(t.Totals[0]) / float64(r), nil
}

// Pair estimates Pr(u ~ v) with r samples.
func (c *Coordinator) Pair(u, v graph.NodeID, r int) float64 {
	p, _ := c.PairCtx(context.Background(), u, v, r)
	return p
}

// PairCtx estimates Pr(u ~ v) over the first r worlds from the pair tally
// (bit-identical to conn.MonteCarlo.PairCtx: same integer count, same
// division).
func (c *Coordinator) PairCtx(ctx context.Context, u, v graph.NodeID, r int) (float64, error) {
	t, err := c.gather(ctx, TallyRequest{Kind: KindPair, U: u, V: v}, r)
	if err != nil {
		return 0, err
	}
	return float64(t.Count) / float64(r), nil
}

// ---- k-NN distance distributions ----------------------------------------

// DistancesCtx computes the hop-distance distribution from src over the
// first r worlds from the per-node histogram tallies — identical to
// knn.SampleStoreCtx, and so is every measure derived from it.
func (c *Coordinator) DistancesCtx(ctx context.Context, src graph.NodeID, r int) (*knn.DistanceDistribution, error) {
	t, err := c.gather(ctx, TallyRequest{Kind: KindDistances, Source: src}, r)
	if err != nil {
		return nil, err
	}
	n := c.g.NumNodes()
	dd := &knn.DistanceDistribution{
		Source:      src,
		R:           r,
		Hist:        make([]map[int32]int, n),
		Unreachable: make([]int, n),
	}
	for v, buckets := range t.Hist {
		dd.Hist[v] = make(map[int32]int, len(buckets))
		for _, b := range buckets {
			dd.Hist[v][b.D] = int(b.N)
		}
		dd.Unreachable[v] = int(t.Unreachable[v])
	}
	return dd, nil
}

// ---- influence spread ----------------------------------------------------

// SpreadCtx estimates the expected influence spread of seeds over the
// first r worlds — the coordinator's influence.SpreadCtx.
func (c *Coordinator) SpreadCtx(ctx context.Context, seeds []graph.NodeID, r int) (float64, error) {
	if len(seeds) == 0 {
		return 0, ctx.Err()
	}
	return c.ratio(ctx, TallyRequest{Kind: KindSpread, Seeds: seeds}, r)
}

// coordEvaluator drives influence.GreedyEval with gathered marginal
// tallies: the seed set lives on the coordinator and travels with every
// request, so workers stay stateless.
type coordEvaluator struct {
	c     *Coordinator
	r     int
	seeds []graph.NodeID
}

func (ev *coordEvaluator) InitialGains(ctx context.Context) ([]int64, error) {
	// nil candidates is the wire's "all nodes" marker (KindMarginal):
	// the initial round gets one total per node without shipping n IDs.
	t, err := ev.c.gather(ctx, TallyRequest{Kind: KindMarginal}, ev.r)
	if err != nil {
		return nil, err
	}
	return t.Totals, nil
}

func (ev *coordEvaluator) MarginalGain(ctx context.Context, v graph.NodeID) (int64, error) {
	t, err := ev.c.gather(ctx, TallyRequest{Kind: KindMarginal, Seeds: ev.seeds, Candidates: []graph.NodeID{v}}, ev.r)
	if err != nil {
		return 0, err
	}
	return t.Totals[0], nil
}

func (ev *coordEvaluator) Picked(_ context.Context, v graph.NodeID) error {
	ev.seeds = append(ev.seeds, v)
	return nil
}

// GreedyCtx runs the CELF greedy influence maximization — the sharded
// influence.GreedyCtx. Over the fleet it scatters marginal-gain tallies;
// because they are the same integers the local evaluator computes, the
// selected seeds, spreads and evaluation counts are identical. With no
// worker it keeps the local evaluator, which caches per-world component
// sizes across the CELF rounds.
func (c *Coordinator) GreedyCtx(ctx context.Context, k, r int) (*influence.Result, error) {
	if !c.Sharded() {
		return influence.GreedyCtx(ctx, c.store, k, r)
	}
	return influence.GreedyEval(ctx, c.g.NumNodes(), k, r, &coordEvaluator{c: c, r: r})
}

// ---- reliability ---------------------------------------------------------

// SetReliabilityCtx estimates k-terminal reliability of set over the first
// r worlds — the coordinator's metrics.SetReliabilityCtx (same integer
// tally, same final division, so bit-identical).
func (c *Coordinator) SetReliabilityCtx(ctx context.Context, set []graph.NodeID, r int) (float64, error) {
	if len(set) <= 1 {
		return 1, ctx.Err()
	}
	return c.ratio(ctx, TallyRequest{Kind: KindReliability, Seeds: set}, r)
}

// AllTerminalReliabilityCtx estimates the probability a random world is
// connected — the coordinator's metrics.AllTerminalReliabilityCtx. On the
// wire, empty Seeds on KindReliability means all-terminal.
func (c *Coordinator) AllTerminalReliabilityCtx(ctx context.Context, r int) (float64, error) {
	return c.ratio(ctx, TallyRequest{Kind: KindReliability}, r)
}

// ExpectedComponentsCtx estimates the expected component count of a random
// world — the coordinator's metrics.ExpectedComponentsCtx.
func (c *Coordinator) ExpectedComponentsCtx(ctx context.Context, r int) (float64, error) {
	return c.ratio(ctx, TallyRequest{Kind: KindComponents}, r)
}

// LargestComponentFractionCtx estimates the expected fraction of nodes in
// the largest component — the coordinator's
// metrics.LargestComponentFractionCtx.
func (c *Coordinator) LargestComponentFractionCtx(ctx context.Context, r int) (float64, error) {
	p, err := c.ratio(ctx, TallyRequest{Kind: KindLargest}, r)
	return p / float64(c.g.NumNodes()), err
}
