package quantile

import "fmt"

// EstimatorSnapshot is one frozen part of an estimator's state in
// transferable form: the backend tag, the element count the blob covers,
// and the backend's versioned binary serialisation (the same bytes
// MarshalBinary/UnmarshalBinary speak). Snapshots are how estimator state
// leaves a process — a cluster node ships one snapshot per live shard to
// the coordinator, which restores and combines them without ever absorbing
// into the originals. Keeping the parts separate matters for MRL: the
// coordinator's §4.9 combined OUTPUT phase over the flat part list
// certifies a tighter Lemma 5 bound than merging first would.
type EstimatorSnapshot struct {
	// Backend names the summary implementation that produced Blob.
	Backend Backend
	// Count is the number of elements Blob covers; restore verifies it.
	Count int64
	// Blob is the estimator's binary serialisation.
	Blob []byte
}

// EstimatorSnapshots freezes every non-empty shard of the concurrent
// estimator as a transferable snapshot, leaving the sketch live and
// unchanged. Each shard is marshalled under its own lock, so concurrent
// ingestion keeps flowing; the parts together cover every element applied
// before the call (plus any that race in shard-by-shard, which only makes
// the transfer fresher). Sampled configurations cannot arise here —
// NewConcurrent rejects Delta — so every shard serialises cleanly.
func (c *Concurrent) EstimatorSnapshots() ([]EstimatorSnapshot, error) {
	snaps := make([]EstimatorSnapshot, 0, len(c.shards))
	for _, sh := range c.shards {
		sh.mu.Lock()
		var (
			blob []byte
			err  error
		)
		count := sh.est.Count()
		if count > 0 {
			blob, err = sh.est.MarshalBinary()
		}
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if count == 0 {
			continue
		}
		snaps = append(snaps, EstimatorSnapshot{Backend: c.backend, Count: count, Blob: blob})
	}
	return snaps, nil
}

// SnapshotEstimator freezes a standalone estimator — e.g. a restored
// checkpoint baseline — as a transferable snapshot. Sampled MRL sketches
// cannot be serialised and are refused.
func SnapshotEstimator(e Estimator) (EstimatorSnapshot, error) {
	blob, err := e.MarshalBinary()
	if err != nil {
		return EstimatorSnapshot{}, err
	}
	return EstimatorSnapshot{Backend: e.EstimatorStats().Backend, Count: e.Count(), Blob: blob}, nil
}

// RestoreEstimatorSnapshot rebuilds a live estimator from a snapshot and
// verifies the restored element count against the snapshot's declared one,
// so a blob paired with the wrong header fails loudly instead of serving a
// silently wrong certificate.
func RestoreEstimatorSnapshot(snap EstimatorSnapshot) (Estimator, error) {
	e, err := EmptyEstimator(snap.Backend)
	if err != nil {
		return nil, err
	}
	if err := e.UnmarshalBinary(snap.Blob); err != nil {
		return nil, err
	}
	if got := e.Count(); got != snap.Count {
		return nil, fmt.Errorf("quantile: snapshot declares %d elements but blob restores %d", snap.Count, got)
	}
	return e, nil
}

// CombineEstimatorSnapshots answers quantiles over the union of the given
// snapshots — the coordinator's scatter/gather merge. All parts must share
// one backend, and they combine by the same rule as a Concurrent's shards:
// for MRL the parts feed the §4.9 combined OUTPUT phase directly, so the
// returned bound is the exact pooled Lemma 5 accounting over every part;
// for the other backends the restored parts are absorbed into one
// estimator and answered with its a-posteriori bound. It returns the
// estimates parallel to phis, the combined rank-error bound, and the total
// element count the answers cover; all-empty input returns ErrEmpty.
func CombineEstimatorSnapshots(snaps []EstimatorSnapshot, phis []float64) (values []float64, errorBound float64, count int64, err error) {
	live := make([]EstimatorSnapshot, 0, len(snaps))
	for _, s := range snaps {
		if s.Count == 0 && len(s.Blob) == 0 {
			continue
		}
		live = append(live, s)
	}
	if len(live) == 0 {
		return nil, 0, 0, ErrEmpty
	}
	for _, s := range live[1:] {
		if s.Backend != live[0].Backend {
			return nil, 0, 0, fmt.Errorf("quantile: cannot combine %q and %q snapshots", live[0].Backend, s.Backend)
		}
	}
	backend, err := ParseBackend(string(live[0].Backend))
	if err != nil {
		return nil, 0, 0, err
	}
	ests := make([]Estimator, len(live))
	for i, s := range live {
		e, err := RestoreEstimatorSnapshot(s)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("quantile: snapshot part %d: %w", i, err)
		}
		ests[i] = e
	}
	parts := func(visit func(Estimator) error) error {
		for _, e := range ests {
			if err := visit(e); err != nil {
				return err
			}
		}
		return nil
	}
	return CombineParts(backend, parts, phis)
}
