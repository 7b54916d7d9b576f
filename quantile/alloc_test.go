package quantile

import (
	"math"
	"math/rand"
	"testing"

	"mrl/internal/parallel"
)

// TestConcurrentAddBatchZeroAllocs extends the core package's steady-state
// guarantee through the sharded front end: routing, shard locking, and the
// per-shard sketch together allocate nothing per batch once warm.
func TestConcurrentAddBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	c, err := NewConcurrent(ConcurrentConfig{B: 8, K: 1024, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	data := make([]float64, 1<<15)
	for i := range data {
		data[i] = r.Float64()
	}
	// Warm every shard through several collapse rounds.
	for i := 0; i < 8; i++ {
		if err := c.AddBatch(data); err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	allocs := testing.AllocsPerRun(1024, func() {
		end := off + 512
		if end > len(data) {
			off, end = 0, 512
		}
		if err := c.AddBatch(data[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	})
	if allocs != 0 {
		t.Fatalf("Concurrent.AddBatch allocated %v per op at steady state, want 0", allocs)
	}
}

// TestConcurrentErrorBoundCopiesNoBuffers pins the bound-only path behind
// ErrorBound (one /metricsz row per metric): it must certify exactly the
// bits the Snap-based CombinedBound does over the same shards, while
// allocating a constant handful of bytes rather than a copy of every
// buffer. Measured at a served geometry with a partial fill buffer.
func TestConcurrentErrorBoundCopiesNoBuffers(t *testing.T) {
	c, err := NewConcurrent(ConcurrentConfig{Epsilon: 0.001, N: 50_000_000, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	data := make([]float64, 300_001)
	for i := range data {
		data[i] = r.Float64()
	}
	if err := c.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	snaps := make([]parallel.Snapshot, len(c.shards))
	for i, sh := range c.shards {
		snaps[i] = parallel.Snap(sh.est.(*Sketch).det)
	}
	got, want := c.ErrorBound(), parallel.CombinedBound(snaps)
	if math.Float64bits(got) != math.Float64bits(want) || got == 0 {
		t.Fatalf("ErrorBound %v, Snap-based CombinedBound %v", got, want)
	}
	if raceEnabled {
		return // allocation accounting is unreliable under the race detector
	}
	if allocs := testing.AllocsPerRun(100, func() { c.ErrorBound() }); allocs > 4 {
		t.Fatalf("ErrorBound allocated %v times per call, want at most 4 (no buffer copies)", allocs)
	}
}
