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

// Parts enumerates the parts of a combine: it calls visit once per part,
// holding whatever lock guards that part for the duration of the call, and
// stops at the first error.
type Parts func(visit func(Estimator) error) error

// parts enumerates every shard, each under its own lock.
func (c *Concurrent) parts() Parts {
	return func(visit func(Estimator) error) error {
		for _, sh := range c.shards {
			sh.mu.Lock()
			err := visit(sh.est)
			sh.mu.Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// CombineParts answers phis over the union of the parts, all of which must
// run backend. MRL parts are frozen with parallel.Snap while visited and feed
// the Section 4.9 combined OUTPUT phase: its pooled Lemma 5 accounting over
// the flat part list certifies a tighter bound than merging first would.
// Every other backend folds the parts into a clone of the first non-empty
// one and answers with its a-posteriori bound; the parts stay untouched.
// With phis nil nothing is selected and only the bound and count are
// evaluated — for MRL from each part's counters and buffer weights, read
// under its lock with no buffer copied. It returns the estimates parallel
// to phis, the combined rank-error bound and the element count the answers
// cover; a query over parts that hold nothing returns ErrEmpty.
func CombineParts(backend Backend, parts Parts, phis []float64) (values []float64, bound float64, count int64, err error) {
	query := phis != nil
	if backend == BackendMRL {
		var snaps []parallel.Snapshot
		var acc parallel.BoundAcc
		err := parts(func(e Estimator) error {
			s, ok := e.(*Sketch)
			if !ok {
				return fmt.Errorf("quantile: cannot combine %T with an MRL sketch", e)
			}
			if s.smp != nil {
				return errors.New("quantile: sampled sketches cannot be combined")
			}
			if query {
				snaps = append(snaps, parallel.Snap(s.det))
			} else {
				acc.Add(s.det)
				count += s.det.Count()
			}
			return nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
		if !query {
			return nil, acc.Bound(), count, nil
		}
		res, err := parallel.CombineSnapshots(snaps, phis)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Values, res.ErrorBound, res.Count, nil
	}
	root, err := fold(parts)
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
// nothing was consumed. Absorb leaves its argument untouched, so only the
// root — the first non-empty part, which the others are absorbed into —
// is cloned: the inputs stay untouched and the result is the caller's to
// query or serialise. Parts must share one backend (Absorb enforces it).
func fold(parts Parts) (Estimator, error) {
	var root Estimator
	err := parts(func(e Estimator) error {
		if e.Count() == 0 {
			return nil
		}
		if root != nil {
			return root.Absorb(e)
		}
		clone, err := cloneEstimator(e)
		root = clone
		return err
	})
	return root, err
}

// SealEstimator folds every shard into one standalone estimator of the
// sketch's backend — e.g. to serialise the combined state — leaving the
// Concurrent sketch usable and unchanged. An MRL sketch seals into a
// *Sketch through the COLLAPSE-based absorb path.
func (c *Concurrent) SealEstimator() (Estimator, error) {
	out, err := fold(c.parts())
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, errors.New("quantile: nothing consumed; nothing to seal")
	}
	return out, nil
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
