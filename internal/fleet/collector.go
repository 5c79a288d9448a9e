package fleet

import (
	"crypto/subtle"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"pacer"
)

// CollectorOptions configure a Collector.
type CollectorOptions struct {
	// MaxBodyBytes bounds the compressed size of one push. Default 8 MiB.
	MaxBodyBytes int64
	// MaxDecompressedBytes bounds one push after gzip inflation, so a
	// small compressed bomb cannot OOM the collector. Default
	// 10 * MaxBodyBytes.
	MaxDecompressedBytes int64
	// AuthToken, when non-empty, requires every push to carry
	// "Authorization: Bearer <token>" with this exact token; anything else
	// gets 401 before the body is read. The read-only endpoints (/races,
	// /metrics, /healthz) stay open — deployments front those with their
	// own access control. Compared in constant time.
	AuthToken string
	// Clock supplies last-seen timestamps; tests inject a fake. Default
	// time.Now.
	Clock func() time.Time
	// InstanceTTL, when positive, expires instances whose last push is
	// older than this: a decommissioned or renamed instance drops out of
	// /races and /metrics after the TTL instead of haunting the merged
	// view forever. Expiry is lazy (checked on pushes and reads), so no
	// background goroutine is needed. Zero retains instances for the
	// collector's lifetime.
	InstanceTTL time.Duration
}

// instanceState is the collector's memory of one instance: its latest
// snapshot, verbatim, plus envelope bookkeeping.
type instanceState struct {
	epoch    uint64
	seq      uint64
	dropped  uint64
	lastSeen time.Time
	races    []byte
	arena    *ArenaGauges
	shadow   *ShadowGauges
	threads  *ThreadGauges
}

// Collector is the fleet-side half of the transport: an http.Handler that
// accepts Push snapshots, keeps the latest one per instance, and merges
// them on demand into a fleet-wide triage list. cmd/pacerd wraps it in a
// daemon; tests mount it on a loopback listener.
//
// Because each push replaces its instance's previous snapshot, the merged
// view is a pure function of per-instance state: retries, duplicates, and
// re-deliveries cannot double-count, and a crashed-and-restarted reporter
// simply resumes overwriting its slot — its fresh random epoch resets the
// sequence tracking, so its restarted seq numbering is never mistaken for
// the dead process's stale pushes. Merging happens in sorted instance
// order, so the merged output — including which instance gets first-seen
// attribution for a race several instances reported — is deterministic
// for a given set of snapshots.
type Collector struct {
	opts CollectorOptions

	mu        sync.Mutex
	instances map[string]*instanceState
	pushes    uint64 // accepted pushes (including idempotently ignored ones)
	badPushes uint64 // rejected pushes (decode/validation failures)
	stale     uint64 // accepted-but-ignored pushes (seq not newer)
	unauth    uint64 // pushes rejected for a missing or wrong bearer token
	expired   uint64 // instances dropped after outliving InstanceTTL
}

// NewCollector returns an empty collector.
func NewCollector(opts CollectorOptions) *Collector {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 8 << 20
	}
	if opts.MaxDecompressedBytes <= 0 {
		opts.MaxDecompressedBytes = 10 * opts.MaxBodyBytes
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Collector{opts: opts, instances: make(map[string]*instanceState)}
}

// Handler returns the collector's HTTP surface:
//
//	POST {PushPath}  — accept one snapshot
//	GET  /races      — the merged fleet-wide triage list as JSON
//	GET  /healthz    — liveness
//	GET  /metrics    — Prometheus text metrics
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PushPath, c.handlePush)
	mux.HandleFunc("/races", c.handleRaces)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", c.handleMetrics)
	return mux
}

func (c *Collector) handlePush(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "push must POST", http.StatusMethodNotAllowed)
		return
	}
	if !c.authorized(req) {
		c.mu.Lock()
		c.unauth++
		c.mu.Unlock()
		w.Header().Set("WWW-Authenticate", `Bearer realm="pacerd"`)
		http.Error(w, "push requires a valid bearer token", http.StatusUnauthorized)
		return
	}
	p, err := DecodePush(http.MaxBytesReader(w, req.Body, c.opts.MaxBodyBytes), c.opts.MaxDecompressedBytes)
	if err == nil {
		// Reject triage lists the merge path could not consume, while the
		// reporter is still around to hear about it.
		err = pacer.NewAggregator().ImportJSON(p.Races)
	}
	if err != nil {
		c.mu.Lock()
		c.badPushes++
		c.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.expireLocked()
	c.pushes++
	st := c.instances[p.Instance]
	if st == nil {
		st = &instanceState{}
		c.instances[p.Instance] = st
	}
	st.lastSeen = c.opts.Clock()
	if p.Epoch == st.epoch && p.Seq <= st.seq && st.races != nil {
		// Same process: a retry of something already absorbed, or an
		// out-of-order delivery superseded by a newer snapshot.
		// Acknowledge without touching state, so the reporter stops
		// re-sending. A different epoch is a restarted (or replacement)
		// process whose seq numbering started over — its push is fresh
		// state, never stale, however small its seq.
		c.stale++
		c.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	st.epoch = p.Epoch
	st.seq = p.Seq
	st.dropped = p.Dropped
	st.races = p.Races
	st.arena = p.Arena
	st.shadow = p.Shadow
	st.threads = p.Threads
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// expireLocked drops instances whose last push is older than InstanceTTL.
// Callers hold c.mu. Lazy expiry keeps the collector goroutine-free: the
// merged view and the metrics page are the only observers of instance
// state, so evicting on their reads (and on pushes, which would resurrect
// an expired name anyway) is indistinguishable from a background sweep.
func (c *Collector) expireLocked() {
	ttl := c.opts.InstanceTTL
	if ttl <= 0 {
		return
	}
	cutoff := c.opts.Clock().Add(-ttl)
	for name, st := range c.instances {
		if st.lastSeen.Before(cutoff) {
			delete(c.instances, name)
			c.expired++
		}
	}
}

// authorized checks the push's bearer token against CollectorOptions.
// AuthToken (always true when no token is configured). Constant-time, so
// the comparison leaks nothing about how much of a guessed token matched.
func (c *Collector) authorized(req *http.Request) bool {
	if c.opts.AuthToken == "" {
		return true
	}
	const prefix = "Bearer "
	h := req.Header.Get("Authorization")
	if !strings.HasPrefix(h, prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(c.opts.AuthToken)) == 1
}

// Merged reconstructs every instance's aggregator from its latest
// snapshot and merges them, in sorted instance order, into one fleet-wide
// aggregator.
func (c *Collector) Merged() (*pacer.Aggregator, error) {
	c.mu.Lock()
	c.expireLocked()
	names := make([]string, 0, len(c.instances))
	blobs := make(map[string][]byte, len(c.instances))
	for name, st := range c.instances {
		if st.races == nil {
			continue
		}
		names = append(names, name)
		blobs[name] = st.races
	}
	c.mu.Unlock()
	sort.Strings(names)
	agg := pacer.NewAggregator()
	for _, name := range names {
		if err := agg.ImportJSON(blobs[name]); err != nil {
			// Snapshots are validated at push time, so this means
			// collector-side corruption; surface it rather than serve a
			// partial fleet view.
			return nil, fmt.Errorf("fleet: snapshot from %s: %w", name, err)
		}
	}
	return agg, nil
}

func (c *Collector) handleRaces(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "races must GET", http.StatusMethodNotAllowed)
		return
	}
	agg, err := c.Merged()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	blob, err := agg.MarshalJSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
	w.Write([]byte("\n"))
}

func (c *Collector) handleMetrics(w http.ResponseWriter, req *http.Request) {
	type instRow struct {
		name     string
		seq      uint64
		dropped  uint64
		lastSeen time.Time
		arena    *ArenaGauges
		shadow   *ShadowGauges
		threads  *ThreadGauges
	}
	c.mu.Lock()
	c.expireLocked()
	pushes, bad, stale, unauth, expired := c.pushes, c.badPushes, c.stale, c.unauth, c.expired
	rows := make([]instRow, 0, len(c.instances))
	for name, st := range c.instances {
		rows = append(rows, instRow{name, st.seq, st.dropped, st.lastSeen, st.arena, st.shadow, st.threads})
	}
	c.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	distinct, mergeFailing := 0, 0
	if agg, err := c.Merged(); err == nil {
		distinct = agg.Distinct()
	} else {
		mergeFailing = 1
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP pacer_collector_pushes_total Pushes accepted (including idempotently ignored retries).\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_pushes_total counter\n")
	fmt.Fprintf(w, "pacer_collector_pushes_total %d\n", pushes)
	fmt.Fprintf(w, "# HELP pacer_collector_push_errors_total Pushes rejected (bad schema, bad payload).\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_push_errors_total counter\n")
	fmt.Fprintf(w, "pacer_collector_push_errors_total %d\n", bad)
	fmt.Fprintf(w, "# HELP pacer_collector_unauthorized_total Pushes rejected for a missing or wrong bearer token.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_unauthorized_total counter\n")
	fmt.Fprintf(w, "pacer_collector_unauthorized_total %d\n", unauth)
	fmt.Fprintf(w, "# HELP pacer_collector_stale_pushes_total Pushes acknowledged without effect (sequence not newer).\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_stale_pushes_total counter\n")
	fmt.Fprintf(w, "pacer_collector_stale_pushes_total %d\n", stale)
	fmt.Fprintf(w, "# HELP pacer_collector_instances_expired_total Instances dropped after going unseen for longer than the retention TTL.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_instances_expired_total counter\n")
	fmt.Fprintf(w, "pacer_collector_instances_expired_total %d\n", expired)
	fmt.Fprintf(w, "# HELP pacer_collector_instances Instances with a snapshot on file.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_instances gauge\n")
	fmt.Fprintf(w, "pacer_collector_instances %d\n", len(rows))
	fmt.Fprintf(w, "# HELP pacer_collector_merge_failing 1 when the fleet-wide merge errors (collector-side snapshot corruption; /races is returning 500), else 0.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_merge_failing gauge\n")
	fmt.Fprintf(w, "pacer_collector_merge_failing %d\n", mergeFailing)
	fmt.Fprintf(w, "# HELP pacer_collector_distinct_races Distinct races in the merged fleet view. Absent while the merge is failing, so dashboards never read a broken merge as zero races.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_distinct_races gauge\n")
	if mergeFailing == 0 {
		fmt.Fprintf(w, "pacer_collector_distinct_races %d\n", distinct)
	}
	fmt.Fprintf(w, "# HELP pacer_collector_instance_last_seen_timestamp_seconds Unix time of each instance's last push.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_instance_last_seen_timestamp_seconds gauge\n")
	for _, row := range rows {
		fmt.Fprintf(w, "pacer_collector_instance_last_seen_timestamp_seconds{instance=%q} %d\n",
			row.name, row.lastSeen.Unix())
	}
	fmt.Fprintf(w, "# HELP pacer_collector_reporter_dropped_total Snapshots each instance's bounded queue evicted.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_reporter_dropped_total counter\n")
	for _, row := range rows {
		fmt.Fprintf(w, "pacer_collector_reporter_dropped_total{instance=%q} %d\n", row.name, row.dropped)
	}

	// Arena occupancy, per arena-backed instance (as of each instance's
	// last snapshot; heap-backed instances emit no series).
	arenaMetrics := []struct {
		name, typ, help string
		get             func(*ArenaGauges) uint64
	}{
		{"pacer_arena_slabs_live", "gauge", "Metadata slabs currently held by the instance's detector.",
			func(a *ArenaGauges) uint64 { return a.SlabsLive }},
		{"pacer_arena_slabs_free", "gauge", "Metadata slabs parked on the instance's free lists.",
			func(a *ArenaGauges) uint64 { return a.SlabsFree }},
		{"pacer_arena_recycles_total", "counter", "Slab acquisitions served from a free list.",
			func(a *ArenaGauges) uint64 { return a.Recycles }},
		{"pacer_arena_misses_total", "counter", "Slab acquisitions that fell through to the heap.",
			func(a *ArenaGauges) uint64 { return a.Misses }},
		{"pacer_arena_trimmed_total", "counter", "Slabs returned to the GC by bulk reclamation.",
			func(a *ArenaGauges) uint64 { return a.Trimmed }},
	}
	for _, m := range arenaMetrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, row := range rows {
			if row.arena != nil {
				fmt.Fprintf(w, "%s{instance=%q} %d\n", m.name, row.name, m.get(row.arena))
			}
		}
	}

	// Shadow-map resolution, per instrumented instance (instances running
	// behind pacergo's front door; plain library instances emit no series).
	shadowMetrics := []struct {
		name, typ, help string
		get             func(*ShadowGauges) uint64
	}{
		{"pacer_shadow_hits_total", "counter", "Lock-free shadow-map resolutions of known addresses.",
			func(s *ShadowGauges) uint64 { return s.Hits }},
		{"pacer_shadow_misses_total", "counter", "First-sight address registrations (fresh VarID allocated).",
			func(s *ShadowGauges) uint64 { return s.Misses }},
		{"pacer_shadow_evicts_total", "counter", "Explicit evictions of freed addresses.",
			func(s *ShadowGauges) uint64 { return s.Evicts }},
		{"pacer_shadow_vars", "gauge", "Addresses currently mapped to variable identifiers.",
			func(s *ShadowGauges) uint64 { return s.Vars }},
	}
	for _, m := range shadowMetrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, row := range rows {
			if row.shadow != nil {
				fmt.Fprintf(w, "%s{instance=%q} %d\n", m.name, row.name, m.get(row.shadow))
			}
		}
	}

	// Detector threads, per instance that reports its Stats.
	for _, m := range ThreadMetrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", m.Name, m.Help, m.Name)
		for _, row := range rows {
			if row.threads != nil {
				fmt.Fprintf(w, "%s{instance=%q} %d\n", m.Name, row.name, m.Get(row.threads))
			}
		}
	}
}

// ThreadMetric is one per-instance thread gauge on /metrics.
type ThreadMetric struct {
	Name, Help string
	Get        func(*ThreadGauges) uint64
}

// ThreadMetrics are the per-instance thread gauges /metrics exports, here
// and in the ingest tier.
var ThreadMetrics = []ThreadMetric{
	{"pacer_threads_live", "Detector threads alive: started and not exited or joined.",
		func(g *ThreadGauges) uint64 { return g.Live }},
	{"pacer_thread_slots", "Detector thread slots handed out: the vector-clock width.",
		func(g *ThreadGauges) uint64 { return g.Slots }},
}
