package quantile

import (
	"errors"
	"fmt"
	"math"

	"mrl/internal/kll"
	"mrl/internal/weighted"
)

// Estimator is the contract every quantile backend satisfies behind this
// facade: single-pass ingest, multi-quantile queries, an a-posteriori
// error bound for the data actually consumed, and a versioned binary
// snapshot that resumes bit-exactly. The MRL Sketch (this package), the
// KLL sketch (internal/kll, unknown-N streams) and the weighted
// MERGE/COMPRESS summary (internal/weighted, per-value weights) all
// implement it; Concurrent shards any of them.
type Estimator interface {
	// Add consumes one stream element; NaN is rejected.
	Add(v float64) error
	// AddBatch consumes a batch all-or-nothing: a NaN anywhere rejects the
	// whole batch and no element is consumed.
	AddBatch(vs []float64) error
	// Quantile returns an approximation of the phi-quantile, phi in [0,1].
	Quantile(phi float64) (float64, error)
	// Quantiles answers many quantiles in one pass, parallel to phis.
	Quantiles(phis []float64) ([]float64, error)
	// Count returns the number of elements consumed.
	Count() int64
	// Min and Max return the exact extremes consumed so far.
	Min() (float64, error)
	Max() (float64, error)
	// ErrorBound returns the backend's current a-posteriori worst-case
	// rank error. ok is false when the backend cannot certify one (the
	// MRL sampling front-end); KLL's bound is probabilistic at its
	// configured (tiny) delta, all others are deterministic.
	ErrorBound() (bound float64, ok bool)
	// EstimatorStats returns backend-neutral maintenance counters.
	EstimatorStats() EstimatorStats
	// Reset discards all consumed data, keeping the provisioning.
	Reset() error
	// MarshalBinary/UnmarshalBinary snapshot and restore the estimator;
	// the restored instance resumes bit-exactly.
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
	// Absorb folds another estimator of the same backend into this one,
	// leaving the argument untouched.
	Absorb(other Estimator) error
	// Describe returns a one-line provisioning summary.
	Describe() string
}

// EstimatorStats is the backend-neutral maintenance accounting every
// Estimator reports: what "compaction" means differs per backend (MRL
// collapses, KLL compactor compactions, weighted COMPRESS passes) but the
// shape — how much was ingested, how much is held, how often the summary
// was reduced — is shared.
type EstimatorStats struct {
	Backend        Backend
	Count          int64
	MemoryElements int
	// Compactions counts summary-reduction operations: COLLAPSE (MRL),
	// compactor compactions (KLL), COMPRESS passes (weighted).
	Compactions int64
	// Absorbs counts whole estimators folded in via Absorb.
	Absorbs int64
}

// Backend names a quantile summary implementation.
type Backend string

const (
	// BackendMRL is the paper's deterministic multi-level summary: a-priori
	// epsilon*N guarantee, sized from (Epsilon, N). The default.
	BackendMRL Backend = "mrl"
	// BackendKLL is the KLL sketch: no a-priori N needed, O(k) memory
	// forever, a-posteriori (probabilistic) bound.
	BackendKLL Backend = "kll"
	// BackendWeighted is the GK-style weighted summary: ingest carries
	// per-value weights, deterministic a-posteriori bound in weight units.
	BackendWeighted Backend = "weighted"
)

// ErrUnknownBackend is wrapped by every rejection of a backend name this
// package does not implement.
var ErrUnknownBackend = errors.New("quantile: unknown backend")

// ParseBackend maps a configuration string to a Backend. The empty string
// selects BackendMRL, keeping configs from before backend selection valid;
// anything unrecognised is rejected wrapping ErrUnknownBackend.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendMRL:
		return BackendMRL, nil
	case BackendKLL:
		return BackendKLL, nil
	case BackendWeighted:
		return BackendWeighted, nil
	default:
		return "", fmt.Errorf("%w: %q (want %q, %q or %q)",
			ErrUnknownBackend, s, BackendMRL, BackendKLL, BackendWeighted)
	}
}

// NewEstimator provisions a backend from the shared Config. BackendMRL
// uses the full config (including the Delta sampling coupling); BackendKLL
// sizes its accuracy parameter from K when set, else ~2/Epsilon; and
// BackendWeighted compresses to Epsilon (by weight). Seed drives KLL's
// compaction coins.
func NewEstimator(b Backend, cfg Config) (Estimator, error) {
	switch b {
	case "", BackendMRL:
		return New(cfg)
	case BackendKLL:
		return NewKLL(cfg)
	case BackendWeighted:
		return NewWeighted(cfg)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, string(b))
	}
}

// EmptyEstimator returns a zero-value estimator of the given backend,
// ready to restore a snapshot via UnmarshalBinary — the decode side of a
// backend-tagged serialisation format (e.g. the serve checkpoint).
func EmptyEstimator(b Backend) (Estimator, error) {
	switch b {
	case "", BackendMRL:
		return &Sketch{}, nil
	case BackendKLL:
		return &KLL{}, nil
	case BackendWeighted:
		return &Weighted{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, string(b))
	}
}

// Interface conformance, checked at compile time.
var (
	_ Estimator = (*Sketch)(nil)
	_ Estimator = (*KLL)(nil)
	_ Estimator = (*Weighted)(nil)
)

// --- Sketch: the MRL backend's Estimator surface ---

// AddBatch consumes a batch all-or-nothing: the batch is scanned for NaN
// first and rejected whole (reporting the offending index) before any
// element lands. This is the Estimator contract; AddSlice keeps the
// historical stop-at-first-error semantics.
func (s *Sketch) AddBatch(vs []float64) error {
	for i, v := range vs {
		if math.IsNaN(v) {
			return fmt.Errorf("quantile: element %d: NaN has no rank and cannot be added", i)
		}
	}
	return s.AddSlice(vs)
}

// EstimatorStats reports the MRL sketch's maintenance accounting in the
// backend-neutral shape.
func (s *Sketch) EstimatorStats() EstimatorStats {
	out := EstimatorStats{Backend: BackendMRL, Count: s.Count(), MemoryElements: s.MemoryElements()}
	if s.det != nil {
		st := s.det.Stats()
		out.Compactions = st.Collapses
		out.Absorbs = st.Absorbs
	}
	return out
}

// Absorb folds another MRL estimator into s; it is Merge behind the
// Estimator interface and rejects foreign backends.
func (s *Sketch) Absorb(other Estimator) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("quantile: cannot absorb %T into an MRL sketch", other)
	}
	return s.Merge(o)
}

// --- KLL backend ---

// kllDefaultK is the floor of the derived accuracy parameter.
const kllDefaultK = 8

// KLL exposes the internal/kll sketch through the Estimator interface:
// the backend for streams whose length is unknown or badly mis-estimated.
// It is not safe for concurrent use; shard it with Concurrent.
type KLL struct {
	sk *kll.Sketch
}

// NewKLL provisions a KLL estimator. cfg.K, when positive, is the sketch's
// accuracy parameter directly (expert use, minimum 2); otherwise it is
// derived from Epsilon as ~2/Epsilon, the point where the probabilistic
// a-posteriori bound lands near Epsilon*n in the steady state. cfg.N is
// deliberately ignored — not needing it is the point of this backend.
// cfg.Seed drives the compaction coins; cfg.Delta, when positive, is the
// confidence of the reported bound (default 1e-12).
func NewKLL(cfg Config) (*KLL, error) {
	k := cfg.K
	if k == 0 {
		if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
			return nil, fmt.Errorf("quantile: kll backend needs Epsilon in (0,1) or explicit K, got Epsilon=%v K=%d", cfg.Epsilon, cfg.K)
		}
		k = int(math.Ceil(2 / cfg.Epsilon))
		if k < kllDefaultK {
			k = kllDefaultK
		}
	}
	sk, err := kll.New(k, cfg.Seed, cfg.Delta)
	if err != nil {
		return nil, err
	}
	return &KLL{sk: sk}, nil
}

// Add consumes one element; NaN is rejected.
func (e *KLL) Add(v float64) error { return e.sk.Add(v) }

// AddBatch consumes a batch all-or-nothing on NaN.
func (e *KLL) AddBatch(vs []float64) error { return e.sk.AddBatch(vs) }

// Quantile returns an approximation of the phi-quantile.
func (e *KLL) Quantile(phi float64) (float64, error) { return mapEmpty(e.sk.Quantile(phi)) }

// Quantiles answers many quantiles in one pass, parallel to phis.
func (e *KLL) Quantiles(phis []float64) ([]float64, error) {
	vs, err := e.sk.Quantiles(phis)
	if errors.Is(err, kll.ErrEmpty) {
		return nil, ErrEmpty
	}
	return vs, err
}

// Count returns the number of elements consumed.
func (e *KLL) Count() int64 { return e.sk.Count() }

// Min returns the exact minimum consumed so far.
func (e *KLL) Min() (float64, error) { return mapEmpty(e.sk.Min()) }

// Max returns the exact maximum consumed so far.
func (e *KLL) Max() (float64, error) { return mapEmpty(e.sk.Max()) }

// ErrorBound returns the sketch's a-posteriori rank-error bound: the
// smaller of the deterministic worst case and the Hoeffding bound at the
// sketch's confidence (1 minus ~1e-12 by default) over the compaction
// coins that were actually flipped.
func (e *KLL) ErrorBound() (float64, bool) { return e.sk.ErrorBound(), true }

// EstimatorStats reports the sketch's maintenance accounting.
func (e *KLL) EstimatorStats() EstimatorStats {
	return EstimatorStats{
		Backend:        BackendKLL,
		Count:          e.sk.Count(),
		MemoryElements: e.sk.MemoryElements(),
		Compactions:    e.sk.Compactions(),
		Absorbs:        e.sk.Absorbs(),
	}
}

// Reset discards all consumed data, keeping k and the coin schedule.
func (e *KLL) Reset() error {
	e.sk.Reset()
	return nil
}

// MarshalBinary snapshots the sketch, coin state included.
func (e *KLL) MarshalBinary() ([]byte, error) { return e.sk.MarshalBinary() }

// UnmarshalBinary restores a snapshot; corruption is rejected without
// touching the receiver.
func (e *KLL) UnmarshalBinary(data []byte) error {
	sk := &kll.Sketch{}
	if err := sk.UnmarshalBinary(data); err != nil {
		return err
	}
	e.sk = sk
	return nil
}

// Absorb folds another KLL estimator into e, leaving it untouched.
func (e *KLL) Absorb(other Estimator) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*KLL)
	if !ok {
		return fmt.Errorf("quantile: cannot absorb %T into a kll sketch", other)
	}
	return e.sk.Absorb(o.sk)
}

// K returns the accuracy parameter the sketch runs at.
func (e *KLL) K() int { return e.sk.K() }

// Describe returns a one-line provisioning summary.
func (e *KLL) Describe() string {
	return fmt.Sprintf("kll{k=%d levels=%d mem=%d}", e.sk.K(), e.sk.Levels(), e.sk.MemoryElements())
}

// --- Weighted backend ---

// Weighted exposes the internal/weighted summary through the Estimator
// interface, plus the weighted ingest the interface cannot carry:
// AddWeighted and AddWeightedBatch. Unweighted Adds carry weight 1, so a
// Weighted estimator fed only through the Estimator interface behaves as a
// plain quantile summary. Not safe for concurrent use.
type Weighted struct {
	sum *weighted.Summary
}

// NewWeighted provisions a weighted estimator compressing to cfg.Epsilon
// by weight (0 selects the package default of 0.01). N, K and the other
// MRL sizing knobs are ignored: the summary sizes itself from the weight
// actually ingested.
func NewWeighted(cfg Config) (*Weighted, error) {
	sum, err := weighted.New(cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	return &Weighted{sum: sum}, nil
}

// Add consumes one element with unit weight; NaN is rejected.
func (e *Weighted) Add(v float64) error { return e.sum.Add(v) }

// AddBatch consumes a unit-weight batch all-or-nothing on NaN.
func (e *Weighted) AddBatch(vs []float64) error { return e.sum.AddBatch(vs) }

// AddWeighted consumes one element carrying weight w (positive, finite).
func (e *Weighted) AddWeighted(v, w float64) error { return e.sum.AddWeighted(v, w) }

// AddWeightedBatch consumes parallel value/weight slices all-or-nothing.
func (e *Weighted) AddWeightedBatch(vs, ws []float64) error { return e.sum.AddWeightedBatch(vs, ws) }

// Quantile returns an approximation of the phi-quantile by weight.
func (e *Weighted) Quantile(phi float64) (float64, error) { return mapEmpty(e.sum.Quantile(phi)) }

// Quantiles answers many quantiles in one pass, parallel to phis.
func (e *Weighted) Quantiles(phis []float64) ([]float64, error) {
	vs, err := e.sum.Quantiles(phis)
	if errors.Is(err, weighted.ErrEmpty) {
		return nil, ErrEmpty
	}
	return vs, err
}

// Count returns the number of ingested elements (each Add counts once,
// whatever weight it carried); Weight returns the total ingested weight.
func (e *Weighted) Count() int64 { return e.sum.Count() }

// Weight returns the total ingested weight W; ranks run over [1, W].
func (e *Weighted) Weight() float64 { return e.sum.Weight() }

// Min returns the exact minimum ingested value.
func (e *Weighted) Min() (float64, error) { return mapEmpty(e.sum.Min()) }

// Max returns the exact maximum ingested value.
func (e *Weighted) Max() (float64, error) { return mapEmpty(e.sum.Max()) }

// ErrorBound returns the summary's deterministic a-posteriori rank-error
// bound max(g+Δ)/2 — in weight units, which coincide with rank units when
// every Add carried weight 1.
func (e *Weighted) ErrorBound() (float64, bool) { return e.sum.Bound(), true }

// EstimatorStats reports the summary's maintenance accounting.
func (e *Weighted) EstimatorStats() EstimatorStats {
	return EstimatorStats{
		Backend:        BackendWeighted,
		Count:          e.sum.Count(),
		MemoryElements: e.sum.MemoryElements(),
		Compactions:    e.sum.Compressions(),
		Absorbs:        e.sum.Merges(),
	}
}

// Reset discards all consumed data, keeping epsilon.
func (e *Weighted) Reset() error {
	e.sum.Reset()
	return nil
}

// MarshalBinary snapshots the summary (pending inserts flushed first).
func (e *Weighted) MarshalBinary() ([]byte, error) { return e.sum.MarshalBinary() }

// UnmarshalBinary restores a snapshot; corruption is rejected without
// touching the receiver.
func (e *Weighted) UnmarshalBinary(data []byte) error {
	sum := &weighted.Summary{}
	if err := sum.UnmarshalBinary(data); err != nil {
		return err
	}
	e.sum = sum
	return nil
}

// Absorb folds another weighted estimator into e, leaving it untouched.
func (e *Weighted) Absorb(other Estimator) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*Weighted)
	if !ok {
		return fmt.Errorf("quantile: cannot absorb %T into a weighted summary", other)
	}
	return e.sum.Merge(o.sum)
}

// Describe returns a one-line provisioning summary.
func (e *Weighted) Describe() string {
	return fmt.Sprintf("weighted{eps=%g tuples=%d weight=%g}", e.sum.Epsilon(), e.sum.Tuples(), e.sum.Weight())
}

// mapEmpty rewrites the internal packages' empty-sketch sentinels to this
// package's ErrEmpty so errors.Is(err, quantile.ErrEmpty) works across
// backends.
func mapEmpty(v float64, err error) (float64, error) {
	if errors.Is(err, kll.ErrEmpty) || errors.Is(err, weighted.ErrEmpty) {
		return v, ErrEmpty
	}
	return v, err
}

// cloneEstimator deep-copies an estimator through its serialised form,
// preserving the backend.
func cloneEstimator(e Estimator) (Estimator, error) {
	blob, err := e.MarshalBinary()
	if err != nil {
		return nil, err
	}
	fresh, err := EmptyEstimator(e.EstimatorStats().Backend)
	if err != nil {
		return nil, err
	}
	if err := fresh.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return fresh, nil
}
