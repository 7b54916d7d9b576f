package quantile

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// snapshotPerm returns a deterministic shuffled permutation of 1..n.
func snapshotPerm(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// TestEstimatorSnapshotsRoundTrip: for every backend, combining a
// Concurrent's exported snapshots must answer exactly what the sketch's own
// combined read path answers — the transfer is lossless.
func TestEstimatorSnapshotsRoundTrip(t *testing.T) {
	phis := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for _, backend := range []Backend{BackendMRL, BackendKLL, BackendWeighted} {
		t.Run(string(backend), func(t *testing.T) {
			c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: 10_000, Shards: 4, Backend: backend, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AddBatch(snapshotPerm(5000, 1)); err != nil {
				t.Fatal(err)
			}
			snaps, err := c.EstimatorSnapshots()
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 {
				t.Fatal("no snapshots from a populated sketch")
			}
			var snapCount int64
			for _, s := range snaps {
				if s.Backend != backend {
					t.Fatalf("snapshot backend = %q, want %q", s.Backend, backend)
				}
				snapCount += s.Count
			}
			if snapCount != c.Count() {
				t.Fatalf("snapshots cover %d elements, sketch has %d", snapCount, c.Count())
			}
			gotVals, gotBound, gotCount, err := CombineEstimatorSnapshots(snaps, phis)
			if err != nil {
				t.Fatal(err)
			}
			wantVals, wantBound, wantCount, err := CombineParts(c.Backend(), c.parts(), phis)
			if err != nil {
				t.Fatal(err)
			}
			if gotCount != wantCount {
				t.Fatalf("combined count = %d, want %d", gotCount, wantCount)
			}
			if gotBound != wantBound {
				t.Fatalf("combined bound = %v, want %v", gotBound, wantBound)
			}
			for i := range phis {
				if gotVals[i] != wantVals[i] {
					t.Fatalf("phi %v: combined value %v, want %v", phis[i], gotVals[i], wantVals[i])
				}
			}
		})
	}
}

// TestCombineEstimatorSnapshotsAcrossSketches merges snapshots from two
// independent Concurrent sketches — the cluster case — and checks the
// answer covers both populations within the pooled bound.
func TestCombineEstimatorSnapshotsAcrossSketches(t *testing.T) {
	const n, half = 8192, 4096
	perm := snapshotPerm(n, 2)
	var snaps []EstimatorSnapshot
	for node := 0; node < 2; node++ {
		c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.005, N: half, Shards: 2, Backend: BackendMRL, Seed: int64(node)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddBatch(perm[node*half : (node+1)*half]); err != nil {
			t.Fatal(err)
		}
		part, err := c.EstimatorSnapshots()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, part...)
	}
	phis := []float64{0.1, 0.5, 0.99}
	values, bound, count, err := CombineEstimatorSnapshots(snaps, phis)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	if bound <= 0 || bound >= 0.01*float64(n) {
		t.Fatalf("bound %v outside (0, eps*N) for the eps/2 provisioning", bound)
	}
	for i, phi := range phis {
		rank := math.Ceil(phi * n)
		if rank < 1 {
			rank = 1
		}
		if got := math.Abs(values[i] - rank); got > bound {
			t.Fatalf("phi %v: |%v - %v| = %v exceeds bound %v", phi, values[i], rank, got, bound)
		}
	}
}

func TestCombineEstimatorSnapshotsErrors(t *testing.T) {
	if _, _, _, err := CombineEstimatorSnapshots(nil, []float64{0.5}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("all-empty combine error = %v, want ErrEmpty", err)
	}
	mk := func(backend Backend) EstimatorSnapshot {
		c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.01, N: 1000, Shards: 1, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddBatch([]float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		snaps, err := c.EstimatorSnapshots()
		if err != nil {
			t.Fatal(err)
		}
		return snaps[0]
	}
	mixed := []EstimatorSnapshot{mk(BackendMRL), mk(BackendKLL)}
	if _, _, _, err := CombineEstimatorSnapshots(mixed, []float64{0.5}); err == nil {
		t.Fatal("mixed-backend combine did not fail")
	}
	bad := mk(BackendMRL)
	bad.Count++
	if _, err := RestoreEstimatorSnapshot(bad); err == nil {
		t.Fatal("count-mismatched restore did not fail")
	}
	corrupt := mk(BackendKLL)
	corrupt.Blob = corrupt.Blob[:len(corrupt.Blob)/2]
	if _, err := RestoreEstimatorSnapshot(corrupt); err == nil {
		t.Fatal("truncated-blob restore did not fail")
	}
}

// TestSnapshotEstimatorStandalone covers the restored-baseline path: a
// standalone estimator of every backend snapshots and restores losslessly.
func TestSnapshotEstimatorStandalone(t *testing.T) {
	for _, backend := range []Backend{BackendMRL, BackendKLL, BackendWeighted} {
		t.Run(string(backend), func(t *testing.T) {
			e, err := NewEstimator(backend, Config{Epsilon: 0.01, N: 1000})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddBatch(snapshotPerm(500, 3)); err != nil {
				t.Fatal(err)
			}
			snap, err := SnapshotEstimator(e)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Backend != backend || snap.Count != e.Count() {
				t.Fatalf("snapshot header = {%q, %d}, want {%q, %d}", snap.Backend, snap.Count, backend, e.Count())
			}
			restored, err := RestoreEstimatorSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("restored median %v, want %v", got, want)
			}
		})
	}
}
