package cert

import (
	"fmt"
	"math"
	"testing"

	"mrl/internal/core"
	"mrl/internal/parallel"
)

// TestBoundAccMatchesSnapCombinedBound pins the bound-only path against the
// snapshot path it replaces: for every MRL (policy, epsilon, N) plan of the
// small sweep, partitioned sketches — one empty, one carrying an absorb —
// are checked after every chunk of the stream, so buffers are caught full,
// partially filled and freshly collapsed. parallel.BoundAcc, which reads
// only counters and buffer weights, must report exactly the bits
// CombinedBound reports over deep-copied Snap views.
func TestBoundAccMatchesSnapCombinedBound(t *testing.T) {
	scs, err := Scenarios(BudgetSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	checks := 0
	for _, sc := range scs {
		if sc.Mode != "" || sc.Sampled || sc.WeightProfile != "" || (sc.Backend != "" && sc.Backend != "mrl") {
			continue
		}
		key := fmt.Sprintf("%s/%g/%d", sc.Policy, sc.Epsilon, sc.N)
		if seen[key] {
			continue
		}
		seen[key] = true
		b, k, pol, err := sc.planGeometry()
		if err != nil {
			t.Fatal(err)
		}
		data, err := sc.buildData()
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*core.Sketch, 4) // parts[3] stays empty
		for i := range parts {
			if parts[i], err = core.NewSketch(b, k, pol); err != nil {
				t.Fatal(err)
			}
		}
		donor, err := core.NewSketch(b, k, pol)
		if err != nil {
			t.Fatal(err)
		}
		if err := donor.AddBatch(data[:len(data)/3]); err != nil {
			t.Fatal(err)
		}
		if err := parts[2].Absorb(donor); err != nil {
			t.Fatal(err)
		}
		const chunk = 97
		for off := 0; off < len(data); off += chunk {
			end := min(off+chunk, len(data))
			if err := parts[(off/chunk)%3].AddBatch(data[off:end]); err != nil {
				t.Fatal(err)
			}
			var acc parallel.BoundAcc
			snaps := make([]parallel.Snapshot, len(parts))
			for i, p := range parts {
				acc.Add(p)
				snaps[i] = parallel.Snap(p)
			}
			got, want := acc.Bound(), parallel.CombinedBound(snaps)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s after %d values: BoundAcc %v, Snap-based CombinedBound %v", key, end, got, want)
			}
			checks++
		}
	}
	if len(seen) < 6 {
		t.Fatalf("only %d MRL plans in the small sweep", len(seen))
	}
	t.Logf("%d plans, %d checks", len(seen), checks)
}
