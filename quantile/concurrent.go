package quantile

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mrl/internal/core"
	"mrl/internal/params"
)

// ConcurrentConfig describes the accuracy contract and parallelism of a
// Concurrent sketch.
type ConcurrentConfig struct {
	// Epsilon is the rank-error tolerance of the combined answer: every
	// quantile reported by the Concurrent sketch has rank within Epsilon*N
	// of exact. Required unless B and K are set explicitly.
	Epsilon float64

	// N is the (maximum) number of elements the stream will carry, across
	// all writers. Required unless B and K are set explicitly.
	N int64

	// Policy selects the collapsing policy used by every shard; the default
	// PolicyNew is the right choice outside comparative experiments.
	Policy Policy

	// Shards is the number of independently locked writer shards. It
	// defaults to runtime.GOMAXPROCS(0): one shard per core is enough to
	// make uncontended ingestion the common case.
	Shards int

	// B and K, when both positive, bypass the optimizer and size every
	// shard directly as B buffers of K elements (expert use; Epsilon and N
	// are then ignored).
	B, K int

	// Backend selects the summary implementation every shard runs:
	// BackendMRL (default), BackendKLL or BackendWeighted. Non-MRL shards
	// are provisioned via NewEstimator from (Epsilon, K, Seed); N and
	// Policy apply only to MRL.
	Backend Backend

	// Seed drives per-shard randomness for backends that use it (KLL's
	// compaction coins); shard i derives its own stream from Seed+i.
	Seed int64
}

// concurrentShard pairs one private estimator with its own lock: a *Sketch
// for MRL, a *KLL or *Weighted otherwise. The padding keeps neighbouring
// shard headers on distinct cache lines so that writers hammering
// different shards do not false-share.
type concurrentShard struct {
	mu  sync.Mutex
	est Estimator
	_   [40]byte
}

// Concurrent is a thread-safe, sharded ingestion front end: values are
// routed to per-core shards, each shard owns a private deterministic Sketch
// behind its own mutex, and queries snapshot all shards and answer through
// the paper's Section 4.9 combined OUTPUT phase. All methods are safe for
// concurrent use by any number of goroutines.
//
// Accuracy accounting (Lemma 5 applied to the forest of shard trees hanging
// off one virtual root): combining P shard roots costs at most P-1 extra
// ranks on top of the sum of the per-shard certificates, so New provisions
// each shard for rank error (Epsilon*N - (Shards-1)) / Shards over its
// ~N/Shards split of the stream. The combined bound reported alongside every
// answer is computed a posteriori from the collapses that actually happened
// and therefore stays exact even if routing drifts from a perfect split
// (overfull shards degrade gracefully through fallback collapses).
type Concurrent struct {
	shards  []*concurrentShard
	next    atomic.Uint64 // round-robin routing cursor
	policy  Policy
	backend Backend
	perDesc string // provisioning summary for Describe
}

// concurrentMinChunk is the smallest AddBatch slice worth splitting further:
// below it the per-shard lock amortizes poorly and a single shard absorbs
// the whole batch.
const concurrentMinChunk = 256

// NewConcurrent provisions a sharded concurrent sketch for the given
// contract. The sampling coupling (Delta) is not supported: sampled sketches
// cannot be combined, which the concurrent read path relies on.
func NewConcurrent(cfg ConcurrentConfig) (*Concurrent, error) {
	pol, err := cfg.Policy.core()
	if err != nil {
		return nil, err
	}
	p := cfg.Shards
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		return nil, fmt.Errorf("quantile: shard count %d must be positive", cfg.Shards)
	}

	backend, err := ParseBackend(string(cfg.Backend))
	if err != nil {
		return nil, err
	}
	if backend != BackendMRL {
		// Non-MRL shards are provisioned directly by their backend: no
		// per-shard N split (KLL does not need one and weighted sizes
		// itself from ingested weight). Each shard's a-posteriori bound
		// adds into the combined bound at query time.
		shards := make([]*concurrentShard, p)
		for i := range shards {
			shardCfg := Config{Epsilon: cfg.Epsilon, K: cfg.K, Seed: cfg.Seed + int64(i)}
			est, err := NewEstimator(backend, shardCfg)
			if err != nil {
				return nil, err
			}
			shards[i] = &concurrentShard{est: est}
		}
		return &Concurrent{
			shards:  shards,
			policy:  cfg.Policy,
			backend: backend,
			perDesc: shards[0].est.Describe(),
		}, nil
	}

	var mk func() (*core.Sketch, error)
	var perDesc string
	switch {
	case cfg.B != 0 || cfg.K != 0:
		if cfg.B < 2 || cfg.K < 1 {
			return nil, fmt.Errorf("quantile: explicit geometry B=%d K=%d invalid", cfg.B, cfg.K)
		}
		mk = func() (*core.Sketch, error) { return core.NewSketch(cfg.B, cfg.K, pol) }
		perDesc = fmt.Sprintf("policy=%v b=%d k=%d", pol, cfg.B, cfg.K)
	default:
		if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
			return nil, fmt.Errorf("quantile: Epsilon %v outside (0,1)", cfg.Epsilon)
		}
		if cfg.N < 1 {
			return nil, fmt.Errorf("quantile: N %d must be positive", cfg.N)
		}
		// Split the rank budget: P-1 ranks pay for the root combination,
		// the rest is divided evenly across the shards' ~N/P substreams.
		nShard := (cfg.N + int64(p) - 1) / int64(p)
		budget := cfg.Epsilon*float64(cfg.N) - float64(p-1)
		if budget <= 0 {
			return nil, fmt.Errorf(
				"quantile: Epsilon %v too tight for %d shards at N=%d (need Epsilon*N > Shards-1)",
				cfg.Epsilon, p, cfg.N)
		}
		epsShard := budget / (float64(p) * float64(nShard))
		plan, err := params.Optimize(pol, epsShard, nShard)
		if err != nil {
			return nil, err
		}
		mk = plan.NewSketch
		perDesc = fmt.Sprintf("policy=%v eps=%.3g n=%d b=%d k=%d", pol, epsShard, nShard, plan.B, plan.K)
	}

	shards := make([]*concurrentShard, p)
	for i := range shards {
		sk, err := mk()
		if err != nil {
			return nil, err
		}
		shards[i] = &concurrentShard{est: &Sketch{det: sk}}
	}
	return &Concurrent{shards: shards, policy: cfg.Policy, backend: BackendMRL, perDesc: perDesc}, nil
}

// acquire returns a locked shard, preferring an uncontended one: starting
// from a round-robin cursor it try-locks each shard in turn, and only blocks
// on the starting shard when every shard is busy. The round-robin start
// keeps the element split across shards balanced (within one batch), which
// is what the per-shard capacity provisioning of NewConcurrent assumes;
// skipping busy shards trades a little balance for zero waiting, and an
// overfull shard only costs bound (reported truthfully), never correctness.
func (c *Concurrent) acquire() *concurrentShard {
	n := len(c.shards)
	if n == 1 {
		sh := c.shards[0]
		sh.mu.Lock()
		return sh
	}
	start := int(c.next.Add(1)-1) % n
	for i := 0; i < n; i++ {
		j := start + i
		if j >= n {
			j -= n
		}
		if sh := c.shards[j]; sh.mu.TryLock() {
			return sh
		}
	}
	sh := c.shards[start]
	sh.mu.Lock()
	return sh
}

// Add consumes one stream element. NaN is rejected. Safe for concurrent use.
func (c *Concurrent) Add(v float64) error {
	sh := c.acquire()
	err := sh.est.Add(v)
	sh.mu.Unlock()
	return err
}

// AddBatch consumes a batch of elements, the preferred high-throughput entry
// point: large batches are split into per-shard chunks (amortizing one lock
// and one bulk buffer copy over hundreds of elements), small ones go to a
// single shard whole. Unlike Add and the sequential Sketch.AddSlice the
// batch is all-or-nothing: a NaN anywhere rejects the whole batch, reporting
// its index, and no element is consumed. Safe for concurrent use; elements
// of concurrent batches interleave freely, which quantile answers are
// insensitive to.
func (c *Concurrent) AddBatch(vs []float64) error {
	return c.AddBatches([][]float64{vs}, nil)
}

// AddWeightedBatch consumes parallel value/weight slices on a
// BackendWeighted sketch, splitting large batches across shards like
// AddBatch. The batch is all-or-nothing: a NaN value or a non-positive or
// non-finite weight anywhere rejects the whole batch before any shard
// consumes an element. Safe for concurrent use.
func (c *Concurrent) AddWeightedBatch(vs, ws []float64) error {
	return c.AddBatches([][]float64{vs}, [][]float64{ws})
}

// AddBatches consumes several batches in one pass — the one splitter behind
// AddBatch and AddWeightedBatch, and the coalesced entry point for apply
// pipelines draining a backlog of same-metric batches. wss, when non-nil,
// carries per-value weights parallel to vss and needs the BackendWeighted
// sketch; a nil wss[i] means unit weights for batch i. The total element
// count is split into per-shard chunks (chunks may span slice boundaries; a
// chunk applies its slices back to back under one shard lock), so shard
// locks and routing are amortised over the whole backlog instead of paid per
// batch. Element order within and across slices is preserved per chunk, and
// every backend's batch ingest leaves exactly the state an element-by-element
// loop would, so at one shard the result is bit-identical to applying the
// batches one by one in order. All-or-nothing: a NaN or an invalid weight
// anywhere rejects every slice untouched, and an empty call is a no-op that
// acquires no shard.
func (c *Concurrent) AddBatches(vss, wss [][]float64) error {
	if wss != nil {
		if c.backend != BackendWeighted {
			return fmt.Errorf("quantile: weighted batches need the %q backend; this sketch runs %q", BackendWeighted, c.backend)
		}
		if len(wss) != len(vss) {
			return fmt.Errorf("quantile: %d batches but %d weight slices", len(vss), len(wss))
		}
	}
	n := 0
	for si, vs := range vss {
		n += len(vs)
		for i, v := range vs {
			if math.IsNaN(v) {
				return fmt.Errorf("quantile: batch %d element %d: NaN has no rank and cannot be added", si, i)
			}
		}
		ws := weightsAt(wss, si)
		if ws == nil {
			continue
		}
		if len(ws) != len(vs) {
			return fmt.Errorf("quantile: batch %d: %d values but %d weights", si, len(vs), len(ws))
		}
		for i, w := range ws {
			if !(w > 0) || math.IsInf(w, 0) {
				return fmt.Errorf("quantile: batch %d element %d: weight %v must be positive and finite", si, i, w)
			}
		}
	}
	if n == 0 {
		return nil
	}
	chunks := (n + concurrentMinChunk - 1) / concurrentMinChunk
	if chunks > len(c.shards) {
		chunks = len(c.shards)
	}
	per := n / chunks
	extra := n % chunks
	si, so := 0, 0
	for i := 0; i < chunks; i++ {
		sz := per
		if i < extra {
			sz++
		}
		sh := c.acquire()
		for rem := sz; rem > 0; {
			for so == len(vss[si]) {
				si++
				so = 0
			}
			take := min(len(vss[si])-so, rem)
			var err error
			if ws := weightsAt(wss, si); ws != nil {
				err = sh.est.(*Weighted).AddWeightedBatch(vss[si][so:so+take], ws[so:so+take])
			} else {
				err = sh.est.AddBatch(vss[si][so : so+take])
			}
			if err != nil {
				sh.mu.Unlock()
				return err
			}
			so += take
			rem -= take
		}
		sh.mu.Unlock()
	}
	return nil
}

// weightsAt returns batch i's weights, nil for a unit-weight batch.
func weightsAt(wss [][]float64, i int) []float64 {
	if wss == nil {
		return nil
	}
	return wss[i]
}

// QuantilesWithBound answers many quantiles over the union of all shards in
// one combined pass, returning the estimates parallel to phis and the
// combined worst-case rank error certified for them (divide by Count for the
// epsilon it certifies).
func (c *Concurrent) QuantilesWithBound(phis []float64) (values []float64, errorBound float64, err error) {
	values, errorBound, _, err = CombineParts(c.backend, c.parts(), phis)
	return values, errorBound, err
}

// Quantiles answers many quantiles in one combined pass; the result is
// parallel to phis.
func (c *Concurrent) Quantiles(phis []float64) ([]float64, error) {
	values, _, err := c.QuantilesWithBound(phis)
	return values, err
}

// Quantile returns an approximation of the phi-quantile of everything
// consumed so far, phi in [0, 1].
func (c *Concurrent) Quantile(phi float64) (float64, error) {
	vs, err := c.Quantiles([]float64{phi})
	if err != nil {
		return math.NaN(), err
	}
	return vs[0], nil
}

// Median returns the 0.5-quantile.
func (c *Concurrent) Median() (float64, error) { return c.Quantile(0.5) }

// ErrorBound returns the current combined worst-case rank error of any
// reported quantile, certified for the data actually consumed (for MRL, the
// pooled Lemma 5 accounting of all shards).
func (c *Concurrent) ErrorBound() float64 {
	_, bound, _, err := CombineParts(c.backend, c.parts(), nil)
	if err != nil {
		return 0
	}
	return bound
}

// Count returns the number of stream elements consumed across all shards.
func (c *Concurrent) Count() int64 {
	var total int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		total += sh.est.Count()
		sh.mu.Unlock()
	}
	return total
}

// Min returns the exact minimum consumed so far.
func (c *Concurrent) Min() (float64, error) { return c.extreme(Estimator.Min, math.Min) }

// Max returns the exact maximum consumed so far.
func (c *Concurrent) Max() (float64, error) { return c.extreme(Estimator.Max, math.Max) }

func (c *Concurrent) extreme(get func(Estimator) (float64, error), pick func(float64, float64) float64) (float64, error) {
	best := math.NaN()
	seen := false
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.est.Count() > 0 {
			v, err := get(sh.est)
			if err != nil {
				sh.mu.Unlock()
				return math.NaN(), err
			}
			if !seen {
				best, seen = v, true
			} else {
				best = pick(best, v)
			}
		}
		sh.mu.Unlock()
	}
	if !seen {
		return math.NaN(), core.ErrEmpty
	}
	return best, nil
}

// MemoryElements returns the total buffer footprint across shards, in
// elements.
func (c *Concurrent) MemoryElements() int {
	total := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		total += sh.est.EstimatorStats().MemoryElements
		sh.mu.Unlock()
	}
	return total
}

// IngestStats is the MRL collapse accounting of one sketch or pooled
// across a Concurrent's shards, the counters an observability endpoint
// exposes alongside quantile answers (the paper's Figure 5 symbols).
type IngestStats struct {
	// Leaves is L: completely filled weight-1 buffers produced by NEW.
	Leaves int64
	// Collapses is C: COLLAPSE operations performed.
	Collapses int64
	// WeightSum is W: the sum of the output weights of all collapses.
	WeightSum int64
	// MaxCollapseWeight is the largest output weight of any collapse.
	MaxCollapseWeight int64
	// Absorbs counts sketch merges folded in via the absorb path.
	Absorbs int64
	// Fallbacks counts collapses outside the nominal schedule, i.e. a shard
	// was driven past the capacity its geometry was sized for.
	Fallbacks int64
}

// Stats returns the pooled collapse accounting across all shards. It is
// MRL-specific (the counters are the paper's symbols); for other backends
// every field is zero — use EstimatorStats instead.
func (c *Concurrent) Stats() IngestStats {
	var out IngestStats
	if c.backend != BackendMRL {
		return out
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st := sh.est.(*Sketch).Stats()
		sh.mu.Unlock()
		out.Leaves += st.Leaves
		out.Collapses += st.Collapses
		out.WeightSum += st.WeightSum
		if st.MaxCollapseWeight > out.MaxCollapseWeight {
			out.MaxCollapseWeight = st.MaxCollapseWeight
		}
		out.Absorbs += st.Absorbs
		out.Fallbacks += st.Fallbacks
	}
	return out
}

// Reset discards all consumed data on every shard, keeping the provisioning.
// Concurrent writers observe either the old or the fresh state per shard;
// quiesce writers first if an exact cut matters.
func (c *Concurrent) Reset() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		_ = sh.est.Reset() // shards are never sampled, so Reset never fails
		sh.mu.Unlock()
	}
}

// Describe returns a one-line summary of the sharded provisioning.
func (c *Concurrent) Describe() string {
	return fmt.Sprintf("concurrent{backend=%s shards=%d per-shard{%s} mem=%d}",
		c.backend, len(c.shards), c.perDesc, c.MemoryElements())
}
