package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// walkSelect is the reference: the merge walk on a private copy of the
// targets.
func walkSelect(views []Weighted, targets []int64) []float64 {
	out := make([]float64, len(targets))
	selectInMerge(views, append([]int64(nil), targets...), out)
	return out
}

// searchSelect forces the rank search on a private copy of the targets.
func searchSelect(views []Weighted, targets []int64) []float64 {
	tg := append([]int64(nil), targets...)
	clampLowTargets(tg)
	out := make([]float64, len(tg))
	var sel Selector
	sel.search(views, tg, out)
	return out
}

// sameBits reports whether two selections are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var negZero = math.Copysign(0, -1)

// randomRuns builds nRuns sorted runs drawn from a small alphabet that
// mixes ±0 and ±Inf, so ties across and inside runs are common.
func randomRuns(r *rand.Rand, nRuns, maxLen int, maxWeight int64) []Weighted {
	alphabet := []float64{math.Inf(-1), -2, -1, negZero, 0, 0.5, 1, 3, math.Inf(1)}
	views := make([]Weighted, nRuns)
	for i := range views {
		data := make([]float64, r.Intn(maxLen+1))
		for j := range data {
			if r.Intn(3) == 0 {
				data[j] = alphabet[r.Intn(len(alphabet))]
			} else {
				data[j] = float64(r.Intn(40)) - 20
			}
		}
		sort.Float64s(data) // leaves ±0 in arbitrary relative order
		views[i] = Weighted{Data: data, Weight: 1 + r.Int63n(maxWeight)}
	}
	return views
}

// sortedTargets draws n ascending targets spanning below 1 to past total.
func sortedTargets(r *rand.Rand, n int, total int64) []int64 {
	tg := make([]int64, n)
	for i := range tg {
		tg[i] = r.Int63n(total+4) - 2
	}
	sort.Slice(tg, func(i, j int) bool { return tg[i] < tg[j] })
	return tg
}

// TestSearchMatchesWalkRandom: on tie-heavy runs with signed zeros and
// infinities, the rank search returns the walk's element bit for bit,
// including targets below 1 and beyond the total weight.
func TestSearchMatchesWalkRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		views := randomRuns(r, 1+r.Intn(20), 12, 6)
		total := TotalWeight(views)
		if total == 0 {
			continue
		}
		tg := sortedTargets(r, 1+r.Intn(10), total)
		want, got := walkSelect(views, tg), searchSelect(views, tg)
		if !sameBits(want, got) {
			t.Fatalf("iter %d targets %v:\nwalk   %v\nsearch %v\nviews %v", iter, tg, want, got, views)
		}
	}
}

// TestSearchSignedZeroOrder pins the tie rule on zeros: the walk consumes
// equal elements run by run in index order, so which zero comes back
// depends on the run and position the target lands on.
func TestSearchSignedZeroOrder(t *testing.T) {
	views := []Weighted{
		{Data: []float64{-1, 0, negZero}, Weight: 2},
		{Data: []float64{negZero, 0, 4}, Weight: 1},
	}
	// merge: -1 -1 | 0 0 | -0 -0 | -0 | 0 | 4
	want := []float64{-1, -1, 0, 0, negZero, negZero, negZero, 0, 4, 4}
	tg := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 12}
	for _, got := range [][]float64{walkSelect(views, tg), searchSelect(views, tg)} {
		if !sameBits(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// sweepGeometries are the (policy, b, k, N) plans internal/params picks for
// the cert sweep's epsilons {0.05, 0.01, 0.002} and lengths {512, 8192,
// 131072}, plus the daemon's served plan (epsilon 0.001, N 50M).
var sweepGeometries = []struct {
	p    Policy
	b, k int
	n    int
}{
	{PolicyNew, 4, 26, 512}, {PolicyNew, 3, 91, 8192}, {PolicyNew, 11, 44, 131072},
	{PolicyNew, 2, 128, 512}, {PolicyNew, 3, 293, 8192}, {PolicyNew, 6, 284, 131072},
	{PolicyNew, 2, 256, 512}, {PolicyNew, 2, 1171, 8192}, {PolicyNew, 5, 1041, 131072},
	{PolicyMunroPaterson, 5, 32, 512}, {PolicyMunroPaterson, 8, 64, 8192}, {PolicyMunroPaterson, 11, 128, 131072},
	{PolicyMunroPaterson, 3, 128, 512}, {PolicyMunroPaterson, 6, 256, 8192}, {PolicyMunroPaterson, 9, 512, 131072},
	{PolicyMunroPaterson, 2, 256, 512}, {PolicyMunroPaterson, 4, 1024, 8192}, {PolicyMunroPaterson, 7, 2048, 131072},
	{PolicyARS, 12, 15, 512}, {PolicyARS, 56, 11, 8192}, {PolicyARS, 226, 11, 131072},
	{PolicyARS, 4, 128, 512}, {PolicyARS, 24, 57, 8192}, {PolicyARS, 100, 53, 131072},
	{PolicyARS, 2, 256, 512}, {PolicyARS, 10, 328, 8192}, {PolicyARS, 44, 271, 131072},
	{PolicyNew, 8, 4371, 100000},
}

// TestSearchMatchesWalkSketches runs both algorithms over the OUTPUT views
// of real sketches across the cert-sweep geometries, sentinel-padded
// mid-fill buffers included, with two shards' views side by side.
func TestSearchMatchesWalkSketches(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, g := range sweepGeometries {
		var views []Weighted
		for shard := 0; shard < 2; shard++ {
			s := mustSketch(t, g.b, g.k, g.p)
			vs := make([]float64, g.n/2+r.Intn(g.k))
			for i := range vs {
				vs[i] = math.Round(r.NormFloat64() * 50)
				if i%97 == 0 {
					vs[i] = negZero
				}
			}
			addAll(t, s, vs)
			v, _, err := s.FinalBuffers()
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, v...)
		}
		total := TotalWeight(views)
		for _, nt := range []int{1, 4, 40} {
			tg := sortedTargets(r, nt, total)
			if want, got := walkSelect(views, tg), searchSelect(views, tg); !sameBits(want, got) {
				t.Fatalf("%+v: walk %v, search %v", g, want, got)
			}
		}
	}
}

// TestSelectCostRule checks both sides of the rule: few targets over long
// runs search, a dense target list or tiny runs walk, and zero-weight runs
// always walk.
func TestSelectCostRule(t *testing.T) {
	long := make([]Weighted, 16)
	for i := range long {
		data := make([]float64, 4371)
		for j := range data {
			data[j] = float64(j*16 + i)
		}
		long[i] = Weighted{Data: data, Weight: int64(1 + i%3)}
	}
	total := TotalWeight(long)
	if !searchPays(long, 4, total) {
		t.Error("4 targets over 16 runs of 4371 should search")
	}
	if searchPays(long, 4, total/1000) {
		t.Error("targets in the first 0.1% of the merge should walk")
	}
	if searchPays(long, 5000, total) {
		t.Error("5000 targets should walk")
	}
	tiny := []Weighted{{Data: []float64{1, 2}, Weight: 1}, {Data: []float64{3}, Weight: 2}}
	if searchPays(tiny, 1, 4) {
		t.Error("a 3-element merge should walk")
	}
	zero := append([]Weighted{{Data: []float64{1}, Weight: 0}}, long...)
	if searchPays(zero, 1, total) {
		t.Error("a zero-weight run must force the walk")
	}
	if searchPays(nil, 1, 1) {
		t.Error("an empty merge must walk")
	}
	// Whichever side the rule picks, selectSorted answers like the walk.
	for _, nt := range []int{1, 4, 100, 5000} {
		tg := sortedTargets(rand.New(rand.NewSource(int64(nt))), nt, total)
		out := make([]float64, nt)
		var sel Selector
		want := walkSelect(long, tg)
		sel.selectSorted(long, tg, out)
		if !sameBits(out, want) {
			t.Fatalf("%d targets: selectSorted differs from the walk", nt)
		}
	}
}

// FuzzOutputSelectVsWalk: for any sorted runs and ascending targets, the
// rank search and SelectRanks return the walk's elements bit for bit.
func FuzzOutputSelectVsWalk(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(8), uint8(3))
	f.Add(int64(7), uint8(20), uint8(2), uint8(1))
	f.Add(int64(-3), uint8(1), uint8(30), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, nRuns, maxLen, nTargets uint8) {
		r := rand.New(rand.NewSource(seed))
		views := randomRuns(r, int(nRuns%32)+1, int(maxLen%64), 9)
		total := TotalWeight(views)
		if total == 0 {
			return
		}
		tg := sortedTargets(r, int(nTargets%64)+1, total)
		want := walkSelect(views, tg)
		if got := searchSelect(views, tg); !sameBits(want, got) {
			t.Fatalf("search %v, walk %v (targets %v)", got, want, tg)
		}
		// SelectRanks takes the ranks in any order: feed them reversed.
		ranks := slices.Clone(tg)
		slices.Reverse(ranks)
		out := make([]float64, len(ranks))
		var sel Selector
		sel.SelectRanks(views, ranks, out)
		slices.Reverse(out)
		if !sameBits(want, out) {
			t.Fatalf("SelectRanks %v, walk %v (targets %v)", out, want, tg)
		}
	})
}
