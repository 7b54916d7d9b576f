package kll

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// diffStream draws values with heavy ties, signed zeros and infinities.
func diffStream(r *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		switch r.Intn(12) {
		case 0:
			vs[i] = math.Copysign(0, -1)
		case 1:
			vs[i] = 0
		case 2:
			vs[i] = float64(r.Intn(5))
		case 3:
			vs[i] = math.Inf(2*r.Intn(2) - 1)
		default:
			vs[i] = r.NormFloat64() * 100
		}
	}
	return vs
}

// requireSameAsRef holds a sorted-compactor sketch to the reference copy of
// the old compaction: same level sizes and contents, same compaction counts
// and footprint, and answers and ranks equal under ==. Equality rather
// than bit identity, because the sorts may order -0 and +0 differently.
func requireSameAsRef(t *testing.T, ctx string, s *Sketch, ref *refSketch) {
	t.Helper()
	if s.Count() != ref.count || s.MemoryElements() != ref.budget || len(s.compactors) != len(ref.compactors) {
		t.Fatalf("%s: count/memory/levels %d/%d/%d, reference %d/%d/%d", ctx,
			s.Count(), s.MemoryElements(), len(s.compactors), ref.count, ref.budget, len(ref.compactors))
	}
	if !slices.Equal(s.compactions, ref.compactions) {
		t.Fatalf("%s: compactions %v, reference %v", ctx, s.compactions, ref.compactions)
	}
	for h, lvl := range s.compactors {
		if h > 0 && !slices.IsSorted(lvl) {
			t.Fatalf("%s: level %d not sorted", ctx, h)
		}
		want := slices.Clone(ref.compactors[h])
		got := slices.Clone(lvl)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: level %d holds %v, reference %v", ctx, h, got, want)
		}
	}
	phis := make([]float64, 0, 41)
	for i := 0; i <= 40; i++ {
		phis = append(phis, float64(i)/40)
	}
	got, err := s.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.quantiles(phis)
	for i, phi := range phis {
		if got[i] != want[i] {
			t.Fatalf("%s: phi=%v answers %v, reference %v", ctx, phi, got[i], want[i])
		}
	}
	for _, v := range []float64{math.Inf(-1), -150, -1, 0, 2, 37.5, math.Inf(1)} {
		if r, _ := s.Rank(v); r != ref.rank(v) {
			t.Fatalf("%s: Rank(%v) = %d, reference %d", ctx, v, r, ref.rank(v))
		}
	}
}

// TestSortedCompactorsMatchReference: across k in {8, 200, 2000} and many
// seeds, streams mixing Add, AddBatch and Absorb leave the sorted-compactor
// sketch indistinguishable from the old unsorted compaction.
func TestSortedCompactorsMatchReference(t *testing.T) {
	for _, k := range []int{8, 200, 2000} {
		seeds := 24
		if k == 2000 {
			seeds = 4
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			r := rand.New(rand.NewSource(seed * int64(k)))
			s, ref := mustNew(t, k, seed), newRef(k, seed)
			for step := 0; step < 6; step++ {
				vs := diffStream(r, r.Intn(20*k))
				switch r.Intn(3) {
				case 0:
					feed(t, s, vs)
				case 1:
					if err := s.AddBatch(vs); err != nil {
						t.Fatal(err)
					}
				case 2:
					o, oref := mustNew(t, k, seed+100), newRef(k, seed+100)
					feed(t, o, vs)
					for _, v := range vs {
						oref.add(v)
					}
					if err := s.Absorb(o); err != nil {
						t.Fatal(err)
					}
					ref.absorb(oref)
					continue
				}
				for _, v := range vs {
					ref.add(v)
				}
				if s.Count() > 0 {
					requireSameAsRef(t, "", s, ref)
				}
			}
			if s.Count() > 0 {
				requireSameAsRef(t, "final", s, ref)
			}
		}
	}
}

// TestCompactionZeroAlloc: at steady state a compaction, promotions
// included, merges in place and allocates nothing.
func TestCompactionZeroAlloc(t *testing.T) {
	s := mustNew(t, 200, 1)
	vs := diffStream(rand.New(rand.NewSource(1)), 1<<16)
	feed(t, s, vs)
	feed(t, s, vs)
	i := 0
	allocs := testing.AllocsPerRun(20000, func() {
		_ = s.Add(vs[i&(len(vs)-1)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Add allocated %v times per call at steady state", allocs)
	}
}
