package quantile

import (
	"errors"
	"fmt"

	"mrl/internal/parallel"
)

// This file holds the package's one combine rule — how answers and bounds
// come out of many partial summaries: the live shards of a Concurrent,
// restored checkpoint baselines, and snapshot parts shipped between
// processes. MRL parts go through the Section 4.9 combined OUTPUT over
// frozen snapshots (internal/parallel); every other backend, and sealing,
// folds the parts into one estimator by Absorb.

// Backend returns the summary implementation the shards run.
func (c *Concurrent) Backend() Backend { return c.backend }

// partsFunc enumerates the parts of a combine: it calls visit once per part,
// holding whatever lock guards that part for the duration of the call, and
// stops at the first error.
type partsFunc func(visit func(Estimator) error) error

// parts enumerates every shard, each under its own lock, then every non-nil
// extra estimator.
func (c *Concurrent) parts(extra []Estimator) partsFunc {
	return func(visit func(Estimator) error) error {
		for _, sh := range c.shards {
			sh.mu.Lock()
			err := visit(sh.est)
			sh.mu.Unlock()
			if err != nil {
				return err
			}
		}
		for _, e := range extra {
			if e == nil {
				continue
			}
			if err := visit(e); err != nil {
				return err
			}
		}
		return nil
	}
}

// combine answers phis over the union of the parts, or with query false
// evaluates only the bound. MRL parts are frozen with parallel.Snap while
// visited and feed the Section 4.9 combined OUTPUT phase: its pooled Lemma 5
// accounting over the flat part list certifies a tighter bound than merging
// first would. Every other backend folds the parts into one estimator and
// answers with its a-posteriori bound; owned says the parts are private
// copies the fold may absorb into, otherwise each is cloned first so the
// inputs stay untouched. It returns the estimates parallel to phis, the
// combined rank-error bound and the element count the answers cover.
func combine(backend Backend, parts partsFunc, owned, query bool, phis []float64) (values []float64, bound float64, count int64, err error) {
	if backend == BackendMRL {
		var snaps []parallel.Snapshot
		err := parts(func(e Estimator) error {
			s, ok := e.(*Sketch)
			if !ok {
				return fmt.Errorf("quantile: cannot combine %T with an MRL sketch", e)
			}
			if s.smp != nil {
				return errors.New("quantile: sampled sketches cannot be combined")
			}
			snaps = append(snaps, parallel.Snap(s.det))
			return nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
		if !query {
			return nil, parallel.CombinedBound(snaps), 0, nil
		}
		res, err := parallel.CombineSnapshots(snaps, phis)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Values, res.ErrorBound, res.Count, nil
	}
	root, err := fold(parts, owned)
	if err != nil {
		return nil, 0, 0, err
	}
	if root == nil {
		if query {
			return nil, 0, 0, ErrEmpty
		}
		return nil, 0, 0, nil
	}
	if query {
		if values, err = root.Quantiles(phis); err != nil {
			return nil, 0, 0, err
		}
	}
	bound, _ = root.ErrorBound()
	return values, bound, root.Count(), nil
}

// fold absorbs every non-empty part into one estimator, returning nil when
// nothing was consumed. Unless owned, each part is cloned before it is
// used, so the inputs stay untouched and the result is the caller's to
// query or serialise. Parts must share one backend (Absorb enforces it).
func fold(parts partsFunc, owned bool) (Estimator, error) {
	var root Estimator
	err := parts(func(e Estimator) error {
		if e.Count() == 0 {
			return nil
		}
		if !owned {
			clone, err := cloneEstimator(e)
			if err != nil {
				return err
			}
			e = clone
		}
		if root == nil {
			root = e
			return nil
		}
		return root.Absorb(e)
	})
	return root, err
}

// SealEstimator folds every shard into one standalone estimator of the
// sketch's backend — e.g. to serialise the combined state — leaving the
// Concurrent sketch usable and unchanged. An MRL sketch seals into a
// *Sketch through the COLLAPSE-based absorb path.
func (c *Concurrent) SealEstimator() (Estimator, error) {
	out, err := fold(c.parts(nil), false)
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
	return combine(c.backend, c.parts(extra), false, true, phis)
}

// BoundEstimators evaluates the combined a-posteriori rank-error bound
// CombineEstimators would certify, without selecting any quantiles. Extras
// CombineEstimators would reject yield 0.
func (c *Concurrent) BoundEstimators(extra []Estimator) float64 {
	_, bound, _, err := combine(c.backend, c.parts(extra), false, false, nil)
	if err != nil {
		return 0
	}
	return bound
}

// EstimatorStats returns the pooled backend-neutral maintenance counters
// across all shards.
func (c *Concurrent) EstimatorStats() EstimatorStats {
	out := EstimatorStats{Backend: c.backend}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st := sh.est.EstimatorStats()
		sh.mu.Unlock()
		out.Count += st.Count
		out.MemoryElements += st.MemoryElements
		out.Compactions += st.Compactions
		out.Absorbs += st.Absorbs
	}
	return out
}
