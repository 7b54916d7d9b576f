package window

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mrl/internal/core"
)

// TestRingRotationPropertyVsOracle drives a ring through many randomized
// rounds of adds and rotations while mirroring the live windows in an exact
// oracle, and asserts after every round that the combined answers stay
// within Bound() of the oracle ranks, that Bound() is exactly the
// certificate Quantiles reports, and that counts and eviction agree; and
// that Bound() allocates nothing.
func TestRingRotationPropertyVsOracle(t *testing.T) {
	const (
		windows   = 4
		perWindow = 3000
		eps       = 0.02
		rounds    = 80
	)
	r := rand.New(rand.NewSource(7))
	ring, err := NewRing(windows, eps, perWindow)
	if err != nil {
		t.Fatal(err)
	}
	// oracle mirrors the live windows: last entry is the filling window.
	oracle := [][]float64{nil}
	phis := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

	for round := 0; round < rounds; round++ {
		// Fill the current window with a round-dependent distribution so
		// the union mixes uniform, heavily tied, and skewed data.
		n := r.Intn(perWindow / 2)
		for i := 0; i < n; i++ {
			var v float64
			switch round % 3 {
			case 0:
				v = r.Float64() * 1000
			case 1:
				v = float64(r.Intn(40)) // heavy ties
			default:
				v = 1000 + 100*r.ExpFloat64()
			}
			if err := ring.Add(v); err != nil {
				t.Fatal(err)
			}
			oracle[len(oracle)-1] = append(oracle[len(oracle)-1], v)
		}
		if r.Intn(3) == 0 {
			if err := ring.Rotate(); err != nil {
				t.Fatal(err)
			}
			oracle = append(oracle, nil)
			if len(oracle) > windows {
				oracle = oracle[1:]
			}
		}

		var union []float64
		for _, w := range oracle {
			union = append(union, w...)
		}
		if ring.Count() != int64(len(union)) {
			t.Fatalf("round %d: Count %d, oracle holds %d", round, ring.Count(), len(union))
		}
		bound := ring.Bound()
		if len(union) == 0 {
			if bound != 0 {
				t.Fatalf("round %d: empty ring certifies bound %v", round, bound)
			}
			if _, _, err := ring.Quantiles(phis); !errors.Is(err, core.ErrEmpty) {
				t.Fatalf("round %d: empty ring answered: %v", round, err)
			}
			continue
		}
		values, qBound, err := ring.Quantiles(phis)
		if err != nil {
			t.Fatal(err)
		}
		if qBound != bound {
			t.Fatalf("round %d: Quantiles bound %v != Bound() %v", round, qBound, bound)
		}
		// Looseness guard: the certificate tracks the provisioning. The
		// a-priori eps*perWindow budget holds per completed window; partial
		// windows mid-stream can certify slightly above it, so allow 2x
		// per live window plus the combination surcharge.
		if max := float64(len(oracle))*(2*eps*perWindow) + windows; bound > max {
			t.Fatalf("round %d: bound %v exceeds sanity ceiling %v", round, bound, max)
		}
		sort.Float64s(union)
		for i, phi := range phis {
			if i > 0 && values[i] < values[i-1] {
				t.Fatalf("round %d: non-monotone answers %v", round, values)
			}
			v := values[i]
			lo := float64(sort.SearchFloat64s(union, v) + 1)
			hi := float64(sort.Search(len(union), func(j int) bool { return union[j] > v }))
			if hi < lo {
				t.Fatalf("round %d: phi=%v: answer %v is not a live element", round, phi, v)
			}
			target := math.Ceil(phi * float64(len(union)))
			if target < 1 {
				target = 1
			}
			if hi < target-bound-1 || lo > target+bound+1 {
				t.Fatalf("round %d: phi=%v: answer %v rank=[%v,%v], target %v beyond bound %v",
					round, phi, v, lo, hi, target, bound)
			}
		}
	}
	if ring.Rotations() == 0 {
		t.Fatal("property run never rotated; widen the schedule")
	}
	// Bound runs under the metric's ingest lock in the serving layer, so it
	// reads counters and buffer weights only: no buffer is copied.
	if allocs := testing.AllocsPerRun(100, func() { ring.Bound() }); allocs != 0 {
		t.Fatalf("Bound allocated %v times per call, want 0", allocs)
	}
}
