package quantile

import (
	"errors"
	"fmt"
	"math"

	"mrl/internal/parallel"
)

// This file is the backend-generic side of Concurrent: the methods that
// work whatever summary the shards run. MRL answers and bounds go through
// the Section 4.9 combined OUTPUT over shard snapshots (internal/parallel);
// every other backend, and sealing, combines by clone-and-absorb, which
// every backend's Absorb supports.

// Backend returns the summary implementation the shards run.
func (c *Concurrent) Backend() Backend { return c.backend }

// AddWeightedBatch consumes parallel value/weight slices on a
// BackendWeighted sketch, splitting large batches across shards like
// AddBatch. The batch is all-or-nothing: a NaN value or a non-positive or
// non-finite weight anywhere rejects the whole batch before any shard
// consumes an element. Safe for concurrent use.
func (c *Concurrent) AddWeightedBatch(vs, ws []float64) error {
	if c.backend != BackendWeighted {
		return fmt.Errorf("quantile: AddWeightedBatch needs the %q backend; this sketch runs %q", BackendWeighted, c.backend)
	}
	if len(vs) != len(ws) {
		return fmt.Errorf("quantile: %d values but %d weights", len(vs), len(ws))
	}
	n := len(vs)
	if n == 0 {
		return nil
	}
	for i, v := range vs {
		if math.IsNaN(v) {
			return fmt.Errorf("quantile: element %d: NaN has no rank and cannot be added", i)
		}
		if !(ws[i] > 0) || math.IsInf(ws[i], 0) {
			return fmt.Errorf("quantile: element %d: weight %v must be positive and finite", i, ws[i])
		}
	}
	chunks := (n + concurrentMinChunk - 1) / concurrentMinChunk
	if chunks > len(c.shards) {
		chunks = len(c.shards)
	}
	per := n / chunks
	extra := n % chunks
	pos := 0
	for i := 0; i < chunks; i++ {
		sz := per
		if i < extra {
			sz++
		}
		sh := c.acquire()
		err := sh.est.(*Weighted).AddWeightedBatch(vs[pos:pos+sz], ws[pos:pos+sz])
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		pos += sz
	}
	return nil
}

// combineEstimators folds clones of every non-empty shard — and any extra
// estimators — into one standalone estimator, leaving all inputs
// untouched. It returns nil when nothing was consumed. The caller may
// query or serialise the result freely. Extras must match the sketch's
// backend (Absorb enforces it).
func (c *Concurrent) combineEstimators(extra []Estimator) (Estimator, error) {
	var out Estimator
	absorb := func(e Estimator) error {
		clone, err := cloneEstimator(e)
		if err != nil {
			return err
		}
		if out == nil {
			out = clone
			return nil
		}
		return out.Absorb(clone)
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		e := sh.est
		if sh.sk != nil {
			e = &Sketch{det: sh.sk}
		}
		var err error
		if e.Count() > 0 {
			err = absorb(e)
		}
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	for _, e := range extra {
		if e == nil || e.Count() == 0 {
			continue
		}
		if err := absorb(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SealEstimator folds every shard into one standalone estimator of the
// sketch's backend — e.g. to serialise the combined state — leaving the
// Concurrent sketch usable and unchanged. An MRL sketch seals into a
// *Sketch through the COLLAPSE-based absorb path.
func (c *Concurrent) SealEstimator() (Estimator, error) {
	out, err := c.combineEstimators(nil)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, errors.New("quantile: nothing consumed; nothing to seal")
	}
	return out, nil
}

// CombineEstimators answers quantiles over the union of the live shards
// and the given estimators — e.g. checkpoint baselines — without
// modifying either side, whatever backend the sketch runs. It returns the
// estimates parallel to phis, the combined a-posteriori rank-error bound,
// and the total element count the answers cover. Nil and empty extras are
// skipped; extras must match the sketch's backend.
func (c *Concurrent) CombineEstimators(extra []Estimator, phis []float64) (values []float64, errorBound float64, count int64, err error) {
	if c.backend == BackendMRL {
		snaps := c.snapshots()
		for _, e := range extra {
			if e == nil {
				continue
			}
			s, ok := e.(*Sketch)
			if !ok {
				return nil, 0, 0, fmt.Errorf("quantile: cannot combine %T with an MRL sketch", e)
			}
			if s.smp != nil {
				return nil, 0, 0, errors.New("quantile: sampled sketches cannot be combined")
			}
			snaps = append(snaps, parallel.Snap(s.det))
		}
		res, err := parallel.CombineSnapshots(snaps, phis)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Values, res.ErrorBound, res.Count, nil
	}
	combined, err := c.combineEstimators(extra)
	if err != nil {
		return nil, 0, 0, err
	}
	if combined == nil {
		return nil, 0, 0, ErrEmpty
	}
	values, err = combined.Quantiles(phis)
	if err != nil {
		return nil, 0, 0, err
	}
	bound, _ := combined.ErrorBound()
	return values, bound, combined.Count(), nil
}

// BoundEstimators evaluates the combined a-posteriori rank-error bound
// CombineEstimators would certify, without selecting any quantiles.
func (c *Concurrent) BoundEstimators(extra []Estimator) float64 {
	if c.backend == BackendMRL {
		snaps := c.snapshots()
		for _, e := range extra {
			if s, ok := e.(*Sketch); ok && s.det != nil {
				snaps = append(snaps, parallel.Snap(s.det))
			}
		}
		return parallel.CombinedBound(snaps)
	}
	combined, err := c.combineEstimators(extra)
	if err != nil || combined == nil {
		return 0
	}
	bound, _ := combined.ErrorBound()
	return bound
}

// EstimatorStats returns the pooled backend-neutral maintenance counters
// across all shards.
func (c *Concurrent) EstimatorStats() EstimatorStats {
	out := EstimatorStats{Backend: c.backend}
	for _, sh := range c.shards {
		sh.mu.Lock()
		var st EstimatorStats
		if sh.sk != nil {
			cs := sh.sk.Stats()
			st = EstimatorStats{
				Count:          sh.sk.Count(),
				MemoryElements: sh.sk.MemoryElements(),
				Compactions:    cs.Collapses,
				Absorbs:        cs.Absorbs,
			}
		} else {
			st = sh.est.EstimatorStats()
		}
		sh.mu.Unlock()
		out.Count += st.Count
		out.MemoryElements += st.MemoryElements
		out.Compactions += st.Compactions
		out.Absorbs += st.Absorbs
	}
	return out
}
