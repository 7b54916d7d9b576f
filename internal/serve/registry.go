// Package serve is the embeddable HTTP quantile-serving subsystem: a
// named-metric registry pairing a concurrent all-time sketch
// (quantile.Concurrent) with a tumbling-window ring (window.Ring) per
// metric, an HTTP API to ingest values and query quantiles with their live
// Section 4.9 / Lemma 5 error bounds, and a checkpoint/restore path built
// on the sketch binary wire format. cmd/quantiled wraps it as a standalone
// daemon; embedders mount Server.Handler() wherever they already serve HTTP.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mrl/internal/window"
	"mrl/quantile"
)

// Typed failures the HTTP layer maps onto status codes; embedders calling
// the Registry directly can errors.Is against them the same way.
var (
	// ErrInvalidMetricName rejects empty, oversized, or control-character
	// metric names at the registry boundary.
	ErrInvalidMetricName = errors.New("serve: invalid metric name")
	// ErrUnknownMetric is returned by queries against a metric that has
	// never been ingested or registered.
	ErrUnknownMetric = errors.New("serve: unknown metric")
	// ErrWindowingDisabled is returned by windowed queries and rotations
	// when the registry was configured with Windows == 0.
	ErrWindowingDisabled = errors.New("serve: windowed serving disabled (Config.Windows is 0)")
	// ErrNaN rejects batches containing NaN before either structure
	// consumes anything, keeping ingestion all-or-nothing.
	ErrNaN = errors.New("serve: NaN has no rank and cannot be ingested")
	// ErrInvalidBackend rejects backend names the quantile package does not
	// implement, in Config.Backend and in per-request backend selection.
	ErrInvalidBackend = errors.New("serve: invalid backend")
	// ErrBackendMismatch is returned when a request names a backend for a
	// metric that already exists with a different one; a metric's backend is
	// fixed at creation.
	ErrBackendMismatch = errors.New("serve: metric already exists with a different backend")
	// ErrWeightsUnsupported rejects weighted ingest against metrics whose
	// backend cannot carry per-value weights (only "weighted" can).
	ErrWeightsUnsupported = errors.New(`serve: per-value weights need the "weighted" backend`)
	// ErrWeightMismatch rejects weighted batches whose weights slice does
	// not pair up with the values, or carries non-positive/non-finite
	// weights.
	ErrWeightMismatch = errors.New("serve: invalid weights")
)

// weightedWALPrefix marks write-ahead-log records carrying weighted batches:
// the record's metric name is the prefix plus the real name and its values
// interleave [v0, w0, v1, w1, ...]. The prefix starts with a control
// character, which validateMetricName rejects in real names, so it can never
// collide with a plain record.
const weightedWALPrefix = "\x01w:"

// backendWALPrefix marks records whose metric runs a backend other than the
// registry default: "\x01b:<backend>:<name>" with plain values. Without the
// tag a replay into a fresh registry would recreate the metric under the
// default backend and silently change its summary type.
const backendWALPrefix = "\x01b:"

// Config provisions every metric the registry creates; one registry serves
// many metrics under a single shared accuracy contract.
type Config struct {
	// Epsilon is the all-time rank-error tolerance per metric: every served
	// quantile has rank within Epsilon*N of exact while ingestion stays
	// within the provisioned capacity (beyond it the served bound keeps
	// reporting the truth, it just loosens).
	Epsilon float64

	// N is the per-metric all-time stream capacity the guarantee is sized
	// for.
	N int64

	// Shards is the writer-shard count per metric; 0 means one per core.
	Shards int

	// Windows is the tumbling-window ring length per metric ("last W
	// windows"); 0 disables windowed serving entirely.
	Windows int

	// PerWindow is the per-window capacity; required when Windows > 0.
	PerWindow int64

	// WindowEpsilon is the per-window rank-error tolerance; 0 means
	// Epsilon.
	WindowEpsilon float64

	// Backend selects the quantile summary new metrics run: "mrl" (the
	// default), "kll" (no a-priori N needed) or "weighted" (per-value
	// weights). Individual metrics can override it at registration or first
	// ingest; a metric's backend is fixed once created.
	Backend string

	// ApplyWorkers sizes the async apply worker pool draining the ingest
	// queues: 0 (the default) means one per GOMAXPROCS, -1 disables
	// the pool entirely so queued batches apply only at drain barriers
	// (queries, rotations, checkpoints).
	ApplyWorkers int

	// ApplyQueueDepth bounds one metric's apply backlog, in batches; 0 means
	// 256. A full queue exerts backpressure on every ingest carrier per
	// ApplyShed.
	ApplyQueueDepth int

	// ApplyShed selects the backpressure policy when a metric's apply queue
	// is full: false (the default) blocks the ingest until a drainer frees
	// space, true sheds the batch with ErrApplyBacklog (HTTP 429) before it
	// is made durable, so a shed batch is always safe to retry.
	ApplyShed bool
}

func (c Config) withDefaults() Config {
	if c.WindowEpsilon == 0 {
		c.WindowEpsilon = c.Epsilon
	}
	return c
}

// metric is one named stream: a concurrent all-time sketch, an optional
// windowed ring, restored checkpoint baselines, and ingest accounting.
type metric struct {
	name    string
	backend quantile.Backend
	all     *quantile.Concurrent

	ingested atomic.Int64 // values accepted through Ingest
	batches  atomic.Int64 // Ingest calls that touched this metric
	replayed atomic.Int64 // values re-applied from the WAL at recovery

	mu   sync.Mutex // guards ring (window.Ring is not concurrency-safe)
	ring *window.Ring

	resMu    sync.RWMutex // guards restored
	restored []quantile.Estimator

	// gen counts mutations (ingest, replay, rotation, restore). Query-cache
	// entries are stamped with the generation they were computed under and
	// served only while it still matches, so a cached answer can never
	// outlive the data it summarised.
	gen     atomic.Uint64
	cacheMu sync.Mutex
	cache   map[queryCacheKey]queryCacheEntry

	// q is the metric's async apply backlog (every ingest carrier and
	// recovery enqueue here; see applyqueue.go).
	q applyQueue
}

// queryCacheKey identifies one repeated read: the raw phi parameter exactly
// as the client sent it (no parse/canonicalise cost on a hit) plus the
// windowed flag.
type queryCacheKey struct {
	phis     string
	windowed bool
}

type queryCacheEntry struct {
	gen uint64
	res QueryResult
}

// queryCacheMaxEntries bounds the per-metric cache; dashboards repeat a
// handful of phi lists, so the bound only matters against adversarial query
// diversity.
const queryCacheMaxEntries = 128

// metricSeed derives a stable per-metric seed for backends that flip coins
// (KLL compactions), so a restarted process provisions identical shards.
func metricSeed(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}

func newMetric(name string, cfg Config, b quantile.Backend) (*metric, error) {
	all, err := quantile.NewConcurrent(quantile.ConcurrentConfig{
		Epsilon: cfg.Epsilon,
		N:       cfg.N,
		Shards:  cfg.Shards,
		Backend: b,
		Seed:    metricSeed(name),
	})
	if err != nil {
		return nil, fmt.Errorf("serve: metric %q: %w", name, err)
	}
	m := &metric{name: name, backend: b, all: all, cache: make(map[queryCacheKey]queryCacheEntry)}
	if cfg.Windows > 0 {
		ring, err := window.NewRing(cfg.Windows, cfg.WindowEpsilon, cfg.PerWindow)
		if err != nil {
			return nil, fmt.Errorf("serve: metric %q: %w", name, err)
		}
		m.ring = ring
	}
	return m, nil
}

// Registry maps metric names to their serving state. All methods are safe
// for concurrent use.
type Registry struct {
	cfg Config
	// defaultBackend is Config.Backend parsed once; metrics created without
	// an explicit backend run it.
	defaultBackend quantile.Backend

	// metrics is an immutable snapshot swapped atomically on every create,
	// so the per-batch lookup on the ingest hot path is a lock-free load;
	// mu serialises writers (metric creation) only.
	mu      sync.Mutex
	metrics atomic.Pointer[map[string]*metric]

	// pool drains the per-metric apply queues; see applyqueue.go.
	pool *applyPool

	// sessions is the binary ingest exactly-once dedup table;
	// see session.go.
	sessions *sessionTable

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
}

// NewRegistry validates the shared per-metric contract by provisioning (and
// discarding) one probe metric, so configuration errors surface at
// construction instead of on the first request.
func NewRegistry(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	b, err := quantile.ParseBackend(cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidBackend, err)
	}
	if _, err := newMetric("probe", cfg, b); err != nil {
		return nil, err
	}
	workers := cfg.ApplyWorkers
	switch {
	case workers < 0:
		workers = 0
	case workers == 0:
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.ApplyQueueDepth
	if depth <= 0 {
		depth = defaultApplyQueueDepth
	}
	r := &Registry{
		cfg:            cfg,
		defaultBackend: b,
		pool:           newApplyPool(workers, depth, cfg.ApplyShed),
		sessions:       newSessionTable(sessionTableMax),
	}
	empty := make(map[string]*metric)
	r.metrics.Store(&empty)
	return r, nil
}

// Close parks the apply worker pool. Queued batches stay queued and are
// still applied by any drain barrier (queries, checkpoints); Server.Shutdown
// closes the registry after its final checkpoint drained everything.
func (r *Registry) Close() { r.pool.close() }

func validateMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty", ErrInvalidMetricName)
	}
	if len(name) > 128 {
		return fmt.Errorf("%w: %d bytes exceeds 128", ErrInvalidMetricName, len(name))
	}
	for _, r := range name {
		if r <= ' ' || r == 0x7f {
			return fmt.Errorf("%w: %q contains whitespace or control characters", ErrInvalidMetricName, name)
		}
	}
	return nil
}

func (r *Registry) get(name string) *metric {
	return (*r.metrics.Load())[name]
}

func (r *Registry) getOrCreate(name string) (*metric, error) {
	if m := r.get(name); m != nil {
		return m, nil
	}
	m, err := r.getOrCreateBackend(name, r.defaultBackend)
	if errors.Is(err, ErrBackendMismatch) {
		// Raced with creation under an explicit backend; backend-agnostic
		// callers take the metric as it exists.
		if m := r.get(name); m != nil {
			return m, nil
		}
	}
	return m, err
}

// getOrCreateBackend returns the named metric, creating it with backend b
// when it does not exist yet. An existing metric with a different backend is
// an ErrBackendMismatch: the backend is part of the metric's identity.
func (r *Registry) getOrCreateBackend(name string, b quantile.Backend) (*metric, error) {
	if m := r.get(name); m != nil {
		if m.backend != b {
			return nil, fmt.Errorf("%w: %q runs %q, requested %q", ErrBackendMismatch, name, m.backend, b)
		}
		return m, nil
	}
	if err := validateMetricName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.metrics.Load()
	if m := old[name]; m != nil {
		if m.backend != b {
			return nil, fmt.Errorf("%w: %q runs %q, requested %q", ErrBackendMismatch, name, m.backend, b)
		}
		return m, nil
	}
	m, err := newMetric(name, r.cfg, b)
	if err != nil {
		return nil, err
	}
	m.q.init(r.pool)
	// Copy-on-write: readers keep their snapshot, the next lookup sees the
	// new metric.
	next := make(map[string]*metric, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = m
	r.metrics.Store(&next)
	return m, nil
}

// Ensure registers the metric if it does not exist yet, e.g. to pre-create
// well-known metrics at boot instead of on first ingest. It runs the
// registry's default backend.
func (r *Registry) Ensure(name string) error {
	_, err := r.getOrCreate(name)
	return err
}

// EnsureBackend registers the metric with an explicit backend, overriding
// the registry default. Re-ensuring with the backend the metric already runs
// is a no-op; naming a different one is ErrBackendMismatch, and an unknown
// backend name is ErrInvalidBackend.
func (r *Registry) EnsureBackend(name, backend string) error {
	b, err := quantile.ParseBackend(backend)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidBackend, err)
	}
	_, err = r.getOrCreateBackend(name, b)
	return err
}

// Backend reports the backend the named metric runs, or the registry default
// for metrics that do not exist yet.
func (r *Registry) Backend(name string) quantile.Backend {
	if m := r.get(name); m != nil {
		return m.backend
	}
	return r.defaultBackend
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	return len(*r.metrics.Load())
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	snap := *r.metrics.Load()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Ingest routes one batch of values into the metric's all-time sketch (via
// the sharded AddBatch fast path) and its current tumbling window. The
// metric is created on first use. Ingestion is all-or-nothing: a NaN
// anywhere rejects the whole batch before either structure consumes an
// element. Empty batches are accepted as no-ops.
func (r *Registry) Ingest(name string, vs []float64) error {
	m, err := r.getOrCreate(name)
	if err != nil {
		return err
	}
	if err := validateBatch(vs, nil); err != nil {
		return err
	}
	return m.apply([][]float64{vs}, nil, false)
}

// apply folds a run of batches into the metric in one multi-slice
// AddBatches pass — the single apply path shared by synchronous ingest, the
// async drainers and WAL replay. wss is nil for a run without weights,
// else parallel to vss with nil entries for unweighted batches. Replay
// bypasses the window ring and counts values as replayed; the ring only
// ever takes unweighted batches (it summarises unweighted recency). Element
// order across the slices is exactly the order given, so the result is
// identical to applying the batches one by one. Batches are validated by
// the caller.
func (m *metric) apply(vss, wss [][]float64, replay bool) error {
	var n int64
	for _, vs := range vss {
		n += int64(len(vs))
	}
	if !replay {
		m.batches.Add(int64(len(vss)))
	}
	if n == 0 {
		return nil
	}
	// The generation moves only once the batches are in: a query racing the
	// apply then caches under the pre-write generation, which the bump
	// invalidates (see QuantilesCached).
	defer m.gen.Add(1)
	if err := m.all.AddBatches(vss, wss); err != nil {
		return err
	}
	if replay {
		m.replayed.Add(n)
		return nil
	}
	if m.ring != nil {
		m.mu.Lock()
		for i, vs := range vss {
			if len(vs) == 0 || (wss != nil && wss[i] != nil) {
				continue
			}
			if err := m.ring.AddBatch(vs); err != nil {
				m.mu.Unlock()
				return err
			}
		}
		m.mu.Unlock()
	}
	m.ingested.Add(n)
	return nil
}

// validateBatch checks that vs is free of NaN and, for a weighted batch (ws
// non-nil), that ws pairs up with vs and every weight is positive and finite
// (the weighted summary's ingest contract).
func validateBatch(vs, ws []float64) error {
	for i, v := range vs {
		if math.IsNaN(v) {
			return fmt.Errorf("%w (element %d)", ErrNaN, i)
		}
	}
	if ws == nil {
		return nil
	}
	if len(ws) != len(vs) {
		return fmt.Errorf("%w: %d values but %d weights", ErrWeightMismatch, len(vs), len(ws))
	}
	for i, w := range ws {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: weight %v at element %d must be positive and finite", ErrWeightMismatch, w, i)
		}
	}
	return nil
}

// ValidateIngest checks a batch without mutating anything: the metric name
// must be acceptable and the values free of NaN. A weighted batch (ws
// non-nil) also needs a metric that can take weights — one running the
// "weighted" backend, or a registry defaulting to it when the metric does
// not exist yet — and weights paired with the values, positive and finite.
// The ingest path runs it before appending to the log, so a batch that can
// never be applied is never made durable either.
func (r *Registry) ValidateIngest(name string, vs, ws []float64) error {
	m := r.get(name)
	if m == nil {
		if err := validateMetricName(name); err != nil {
			return err
		}
	}
	if ws != nil {
		if m != nil && m.backend != quantile.BackendWeighted {
			return fmt.Errorf("%w: metric %q runs %q", ErrWeightsUnsupported, name, m.backend)
		}
		if m == nil && r.defaultBackend != quantile.BackendWeighted {
			// Creation would pick a backend that cannot take weights;
			// register the metric with the weighted backend first.
			return fmt.Errorf("%w: metric %q", ErrWeightsUnsupported, name)
		}
	}
	return validateBatch(vs, ws)
}

// walRecordName is the WAL record name for a plain batch into the named
// metric: the bare name when the metric runs the registry default backend
// (or does not exist yet), else a backend-tagged name so replay recreates
// the metric under the same summary type.
func (r *Registry) walRecordName(name string) string {
	m := r.get(name)
	if m == nil || m.backend == r.defaultBackend {
		return name
	}
	return backendWALPrefix + string(m.backend) + ":" + name
}

// interleaveWeighted renders a weighted batch into the WAL's flat value
// slice: [v0, w0, v1, w1, ...] under the reserved record-name prefix.
func interleaveWeighted(vs, ws []float64) []float64 {
	out := make([]float64, 0, 2*len(vs))
	for i, v := range vs {
		out = append(out, v, ws[i])
	}
	return out
}

// resolveReplay decodes one recovered WAL record into its target metric and
// validated (values, weights) batch: the reserved weighted prefix
// de-interleaves [v, w, ...] pairs, the backend tag recreates the metric
// under the summary type it was acknowledged with.
func (r *Registry) resolveReplay(name string, vs []float64) (*metric, []float64, []float64, error) {
	if rest, ok := strings.CutPrefix(name, weightedWALPrefix); ok {
		if len(vs)%2 != 0 {
			return nil, nil, nil, fmt.Errorf("%w: odd interleaved length %d replaying %q", ErrWeightMismatch, len(vs), rest)
		}
		n := len(vs) / 2
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = vs[2*i]
			weights[i] = vs[2*i+1]
		}
		m, err := r.getOrCreateBackend(rest, quantile.BackendWeighted)
		if err != nil {
			return nil, nil, nil, err
		}
		return m, values, weights, validateBatch(values, weights)
	}
	var m *metric
	var err error
	if rest, ok := strings.CutPrefix(name, backendWALPrefix); ok {
		tag, metricName, found := strings.Cut(rest, ":")
		if !found {
			return nil, nil, nil, fmt.Errorf("%w: malformed backend-tagged WAL record %q", ErrInvalidBackend, name)
		}
		b, perr := quantile.ParseBackend(tag)
		if perr != nil {
			return nil, nil, nil, fmt.Errorf("%w: %v", ErrInvalidBackend, perr)
		}
		m, err = r.getOrCreateBackend(metricName, b)
	} else {
		m, err = r.getOrCreate(name)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return m, vs, nil, validateBatch(vs, nil)
}

// EnqueueReplay folds one recovered WAL record into its metric through the
// apply queues. Unlike ingest it bypasses the tumbling window — windows
// describe "recent" data, which a restart makes stale by definition — and
// counts the values as replayed rather than ingested, so observability can
// tell recovered history from this process's own traffic. The record is
// resolved and validated synchronously (keeping recovery's error fidelity
// and the single-threaded session dedup ordering) but applied by the worker
// pool, so replay decode overlaps sketch work across metrics. Replay must
// not drop records, so a full queue always blocks regardless of the shed
// policy. Callers run drainAll before serving.
func (r *Registry) EnqueueReplay(name string, vs []float64) error {
	m, values, weights, err := r.resolveReplay(name, vs)
	if err != nil {
		return err
	}
	if len(values) == 0 {
		return nil
	}
	if err := m.q.reserve(true); err != nil {
		return err
	}
	m.q.enqueue(m, applyItem{vs: values, ws: weights, replay: true})
	return nil
}

// drainAll blocks until every queued batch in every metric is applied — the
// barrier checkpoints and recovery run.
func (r *Registry) drainAll() {
	for _, m := range *r.metrics.Load() {
		m.q.drain(m)
	}
}

// Rotate tumbles the named metric's window ring: the current window is
// closed and a fresh one starts, evicting the oldest once the ring is full.
func (r *Registry) Rotate(name string) error {
	m := r.get(name)
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMetric, name)
	}
	if m.ring == nil {
		return ErrWindowingDisabled
	}
	// Rotation is a drain barrier: batches acked before the rotation belong
	// to the closing window, not the fresh one.
	m.q.drain(m)
	m.mu.Lock()
	err := m.ring.Rotate()
	m.mu.Unlock()
	m.gen.Add(1) // after the mutation; see apply
	return err
}

// RotateAll tumbles every windowed metric's ring, returning the names it
// rotated (sorted). Metrics without windowing are skipped.
func (r *Registry) RotateAll() ([]string, error) {
	var rotated []string
	for _, name := range r.Names() {
		m := r.get(name)
		if m == nil || m.ring == nil {
			continue
		}
		m.q.drain(m)
		m.mu.Lock()
		err := m.ring.Rotate()
		m.mu.Unlock()
		m.gen.Add(1) // after the mutation; see apply
		if err != nil {
			return rotated, fmt.Errorf("serve: rotating %q: %w", name, err)
		}
		rotated = append(rotated, name)
	}
	return rotated, nil
}

// QueryResult is one answered quantile query together with its runtime
// certificate.
type QueryResult struct {
	// Values holds the quantile estimates, parallel to the requested phis.
	Values []float64
	// Count is the number of elements the answers cover.
	Count int64
	// ErrorBound is the worst-case rank error of every value, certified by
	// the combined Lemma 5 accounting for the collapses that actually
	// happened (all-time: live shards plus restored checkpoints; windowed:
	// the live windows).
	ErrorBound float64
	// Epsilon is ErrorBound normalised by Count — the epsilon this answer
	// actually certifies at query time.
	Epsilon float64
}

// Quantiles answers phis for the named metric: all-time (live shards plus
// any restored checkpoint baselines) or, with windowed set, over the union
// of the live tumbling windows.
func (r *Registry) Quantiles(name string, phis []float64, windowed bool) (QueryResult, error) {
	m := r.get(name)
	if m == nil {
		return QueryResult{}, fmt.Errorf("%w: %q", ErrUnknownMetric, name)
	}
	// Read-your-acks: apply everything acked before the query arrived.
	m.q.drain(m)
	if windowed {
		return m.queryWindow(phis)
	}
	return m.queryAllTime(phis)
}

// QuantilesCached is Quantiles behind a generation-stamped per-metric cache:
// rawKey is the client's phi parameter verbatim (a hit costs one map lookup,
// no parsing), and any mutation of the metric — ingest, WAL replay, window
// rotation, checkpoint restore — bumps the generation and so invalidates
// every entry at once. An entry raced with a concurrent write is stamped
// with the pre-write generation and can only miss, never serve stale data.
func (r *Registry) QuantilesCached(name, rawKey string, phis []float64, windowed bool) (QueryResult, error) {
	m := r.get(name)
	if m == nil {
		return QueryResult{}, fmt.Errorf("%w: %q", ErrUnknownMetric, name)
	}
	// Read-your-acks before the generation stamp is read, so a cached entry
	// can never hide batches acked before the query.
	m.q.drain(m)
	key := queryCacheKey{phis: rawKey, windowed: windowed}
	gen := m.gen.Load()
	m.cacheMu.Lock()
	if e, ok := m.cache[key]; ok && e.gen == gen {
		m.cacheMu.Unlock()
		r.cacheHits.Add(1)
		return e.res, nil
	}
	m.cacheMu.Unlock()
	r.cacheMisses.Add(1)

	var res QueryResult
	var err error
	if windowed {
		res, err = m.queryWindow(phis)
	} else {
		res, err = m.queryAllTime(phis)
	}
	if err != nil {
		return QueryResult{}, err
	}
	m.cacheMu.Lock()
	if len(m.cache) >= queryCacheMaxEntries {
		// Evict stale generations first; if the cache is full of current
		// entries the query mix is adversarial and dropping everything is
		// cheaper than tracking recency.
		for k, e := range m.cache {
			if e.gen != gen {
				delete(m.cache, k)
			}
		}
		if len(m.cache) >= queryCacheMaxEntries {
			clear(m.cache)
		}
	}
	m.cache[key] = queryCacheEntry{gen: gen, res: res}
	m.cacheMu.Unlock()
	return res, nil
}

// CacheStatus reports the query-cache hit/miss counters and the number of
// live entries across all metrics.
func (r *Registry) CacheStatus() (hits, misses uint64, entries int) {
	for _, m := range *r.metrics.Load() {
		m.cacheMu.Lock()
		entries += len(m.cache)
		m.cacheMu.Unlock()
	}
	return r.cacheHits.Load(), r.cacheMisses.Load(), entries
}

func (m *metric) snapshotRestored() []quantile.Estimator {
	m.resMu.RLock()
	defer m.resMu.RUnlock()
	return append([]quantile.Estimator(nil), m.restored...)
}

func (m *metric) queryAllTime(phis []float64) (QueryResult, error) {
	values, bound, count, err := m.all.CombineEstimators(m.snapshotRestored(), phis)
	if err != nil {
		return QueryResult{}, err
	}
	return newQueryResult(values, bound, count), nil
}

func (m *metric) queryWindow(phis []float64) (QueryResult, error) {
	if m.ring == nil {
		return QueryResult{}, ErrWindowingDisabled
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	values, bound, err := m.ring.Quantiles(phis)
	if err != nil {
		return QueryResult{}, err
	}
	return newQueryResult(values, bound, m.ring.Count()), nil
}

func newQueryResult(values []float64, bound float64, count int64) QueryResult {
	res := QueryResult{Values: values, Count: count, ErrorBound: bound}
	if count > 0 {
		res.Epsilon = bound / float64(count)
	}
	return res
}

// WindowStatus is the observability view of one metric's tumbling-window
// ring.
type WindowStatus struct {
	// Live is the number of windows currently holding a slot in the ring
	// (including the filling one).
	Live int `json:"live"`
	// Count is the total elements across the live windows.
	Count int64 `json:"count"`
	// MemoryElements is the buffer footprint across the ring, in elements.
	MemoryElements int64 `json:"memoryElements"`
	// ErrorBound is the combined rank error the live windows certify now.
	ErrorBound float64 `json:"errorBound"`
	// Rotations counts completed window rotations.
	Rotations int64 `json:"rotations"`
}

// MetricStatus is the observability view of one metric, as served by
// GET /metricsz.
type MetricStatus struct {
	Name string `json:"name"`
	// Backend is the quantile summary implementation the metric runs.
	Backend string `json:"backend"`
	// Count is the all-time element count, restored checkpoints included.
	Count int64 `json:"count"`
	// RestoredCount is the portion of Count carried by restored
	// checkpoints rather than live shards.
	RestoredCount int64 `json:"restoredCount"`
	// IngestedValues and IngestBatches count what arrived through Ingest
	// in this process's lifetime (restored data excluded).
	IngestedValues int64 `json:"ingestedValues"`
	IngestBatches  int64 `json:"ingestBatches"`
	// ReplayedValues counts values re-applied from the write-ahead log at
	// recovery — acked by a previous process, re-ingested by this one.
	ReplayedValues int64 `json:"replayedValues"`
	// Shards and ShardCounts expose writer-shard occupancy.
	Shards      int     `json:"shards"`
	ShardCounts []int64 `json:"shardCounts"`
	// MemoryElements is the total buffer footprint (shards + restored +
	// windows), in elements.
	MemoryElements int64 `json:"memoryElements"`
	// Collapses, WeightSum and Fallbacks are the pooled collapse counters
	// across shards (Figure 5 symbols; fallbacks > 0 means the metric was
	// driven past its provisioned capacity). MRL-only; zero elsewhere.
	Collapses int64 `json:"collapses"`
	WeightSum int64 `json:"weightSum"`
	Fallbacks int64 `json:"fallbacks"`
	// Compactions is the backend-neutral summary-reduction counter: MRL
	// collapses, KLL compactor compactions, weighted COMPRESS passes.
	Compactions int64 `json:"compactions"`
	// ErrorBound is the all-time combined rank error certified right now.
	ErrorBound float64 `json:"errorBound"`
	// PendingApplyBatches is the applied-vs-acked lag: batches acked (and
	// made durable) but still waiting in the metric's apply queue. Any query
	// against the metric drains it to zero first.
	PendingApplyBatches uint64 `json:"pendingApplyBatches,omitempty"`
	// Window is nil when windowed serving is disabled.
	Window *WindowStatus `json:"window,omitempty"`
}

// Status reports every metric's observability view, sorted by name.
func (r *Registry) Status() []MetricStatus {
	names := r.Names()
	out := make([]MetricStatus, 0, len(names))
	for _, name := range names {
		if m := r.get(name); m != nil {
			out = append(out, m.status())
		}
	}
	return out
}

func (m *metric) status() MetricStatus {
	restored := m.snapshotRestored()
	var restoredCount, restoredMem int64
	for _, e := range restored {
		restoredCount += e.Count()
		restoredMem += int64(e.EstimatorStats().MemoryElements)
	}
	st := m.all.Stats()
	out := MetricStatus{
		Name:                m.name,
		Backend:             string(m.backend),
		Count:               m.all.Count() + restoredCount,
		RestoredCount:       restoredCount,
		IngestedValues:      m.ingested.Load(),
		IngestBatches:       m.batches.Load(),
		ReplayedValues:      m.replayed.Load(),
		Shards:              m.all.Shards(),
		ShardCounts:         m.all.ShardCounts(),
		MemoryElements:      int64(m.all.MemoryElements()) + restoredMem,
		Collapses:           st.Collapses,
		WeightSum:           st.WeightSum,
		Fallbacks:           st.Fallbacks,
		Compactions:         m.all.EstimatorStats().Compactions,
		ErrorBound:          m.all.BoundEstimators(restored),
		PendingApplyBatches: m.q.pending(),
	}
	if m.ring != nil {
		m.mu.Lock()
		out.Window = &WindowStatus{
			Live:           m.ring.Windows(),
			Count:          m.ring.Count(),
			MemoryElements: m.ring.MemoryElements(),
			ErrorBound:     m.ring.Bound(),
			Rotations:      m.ring.Rotations(),
		}
		out.MemoryElements += out.Window.MemoryElements
		m.mu.Unlock()
	}
	return out
}

// ApplyStatus is the observability view of the async apply pipeline, served
// in /metricsz's "apply" block.
type ApplyStatus struct {
	// Workers is the configured pool size; 0 means the pool is disabled and
	// only drain barriers apply batches.
	Workers int `json:"workers"`
	// QueueDepth is the per-metric backlog bound, in batches.
	QueueDepth int `json:"queueDepth"`
	// Policy is the full-queue backpressure policy: "block" or "shed".
	Policy string `json:"policy"`
	// PendingBatches is the applied-vs-acked lag summed over all metrics.
	PendingBatches uint64 `json:"pendingBatches"`
	// EnqueuedBatches and AppliedBatches count batches through the pipeline;
	// CoalescedBatches is the subset applied as part of a multi-batch
	// coalesced run (CoalescedRatio = coalesced/applied).
	EnqueuedBatches  int64   `json:"enqueuedBatches"`
	AppliedBatches   int64   `json:"appliedBatches"`
	CoalescedBatches int64   `json:"coalescedBatches"`
	CoalescedRatio   float64 `json:"coalescedRatio"`
	// ShedBatches counts batches rejected with ErrApplyBacklog; blocked
	// enqueues counts reservations that had to wait for space.
	ShedBatches     int64 `json:"shedBatches"`
	BlockedEnqueues int64 `json:"blockedEnqueues"`
	// RunningWorkers is the number of pool workers applying right now;
	// WorkerRuns counts completed drain sessions and BusySeconds the
	// cumulative time workers spent applying (utilisation =
	// BusySeconds / (Workers * uptime)).
	RunningWorkers int64   `json:"runningWorkers"`
	WorkerRuns     int64   `json:"workerRuns"`
	BusySeconds    float64 `json:"busySeconds"`
	// ApplyErrors counts post-ack apply failures (a bug by construction:
	// batches are fully validated before they are logged); LastError is the
	// most recent one.
	ApplyErrors int64  `json:"applyErrors"`
	LastError   string `json:"lastError,omitempty"`
}

// ApplyStatus reports the async apply pipeline's counters. It does not drain
// queues, so PendingBatches is the live lag.
func (r *Registry) ApplyStatus() ApplyStatus {
	p := r.pool
	var pending uint64
	for _, m := range *r.metrics.Load() {
		pending += m.q.pending()
	}
	applied := p.appliedBatches.Load()
	coalesced := p.coalescedBatches.Load()
	st := ApplyStatus{
		Workers:          p.workers,
		QueueDepth:       p.depth,
		Policy:           "block",
		PendingBatches:   pending,
		EnqueuedBatches:  p.enqueuedBatches.Load(),
		AppliedBatches:   applied,
		CoalescedBatches: coalesced,
		ShedBatches:      p.shedBatches.Load(),
		BlockedEnqueues:  p.blockedEnqueues.Load(),
		RunningWorkers:   p.running.Load(),
		WorkerRuns:       p.runs.Load(),
		BusySeconds:      float64(p.busyNanos.Load()) / 1e9,
		ApplyErrors:      p.applyErrors.Load(),
	}
	if p.shed {
		st.Policy = "shed"
	}
	if applied > 0 {
		st.CoalescedRatio = float64(coalesced) / float64(applied)
	}
	if e, ok := p.lastErr.Load().(string); ok {
		st.LastError = e
	}
	return st
}
