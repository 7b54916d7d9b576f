package core

import (
	"math"
	"sort"
)

// selectSorted writes to out the elements at the given 1-based positions of
// the weighted merge of views: the paper's OUTPUT operation (Sections 3.2
// and 4.9). It returns exactly what SelectInMerge returns, element for element
// and bit for bit, signed zeros included, but it picks the cheaper of two
// algorithms on each call:
//
//   - the merge walk, which visits every element up to the last target and
//     wins when the targets are many (a dense phi list);
//   - a rank search, which finds each target on its own by binary searches
//     inside the runs and wins when the targets are few and the runs long.
//
// searchPays is the cost rule. The views must be sorted ascending and the
// targets sorted ascending; out must be as long as targets. Targets below 1
// are raised to 1 in place, and targets beyond the merge's weighted length
// select its last element.
func (sel *Selector) selectSorted(views []Weighted, targets []int64, out []float64) {
	if len(targets) == 0 {
		return
	}
	clampLowTargets(targets)
	if searchPays(views, len(targets), targets[len(targets)-1]) {
		sel.search(views, targets, out)
		return
	}
	selectInMergeScratch(views, targets, out, sel)
}

// SelectRanks writes to out[i] the element at 1-based position ranks[i] of
// the weighted merge of views, each sorted ascending: the OUTPUT selection
// behind every quantile query. It returns exactly what SelectInMerge
// returns for the same positions, and picks per call between the merge walk
// and a rank search by the cost rule searchPays. The ranks may come in any
// order and stay untouched: SelectRanks sorts a private copy.
func (sel *Selector) SelectRanks(views []Weighted, ranks []int64, out []float64) {
	n := len(ranks)
	sel.tgts = growInt64(sel.tgts, n)
	sel.idx = growInt(sel.idx, n)
	sel.picked = growFloat64(sel.picked, n)
	copy(sel.tgts, ranks)
	for i := range sel.idx {
		sel.idx[i] = i
	}
	sortTargets(sel.tgts, sel.idx, &sel.sorter)
	sel.selectSorted(views, sel.tgts, sel.picked)
	for i, j := range sel.idx {
		out[j] = sel.picked[i]
	}
}

// insertionSortMax is the target count above which sortTargets defers to
// the stdlib sort; below it the branch-light insertion sort wins and stays
// allocation-free.
const insertionSortMax = 32

// sortTargets orders the parallel (tgts, idx) slices by target position:
// insertion sort for the short lists dashboards actually request, stdlib
// sort (through the reusable tgtSorter, avoiding the sort.Slice closure)
// for pathological ones.
func sortTargets(tgts []int64, idx []int, sorter *tgtSorter) {
	if len(tgts) > insertionSortMax {
		sorter.tgts, sorter.idx = tgts, idx
		sort.Sort(sorter)
		return
	}
	for i := 1; i < len(tgts); i++ {
		t, id := tgts[i], idx[i]
		j := i - 1
		for ; j >= 0 && tgts[j] > t; j-- {
			tgts[j+1], idx[j+1] = tgts[j], idx[j]
		}
		tgts[j+1], idx[j+1] = t, id
	}
}

// tgtSorter orders the (tgts, idx) pair by target position; it exists so
// wide target lists can use the stdlib sort without the per-call closure
// allocation of sort.Slice.
type tgtSorter struct {
	tgts []int64
	idx  []int
}

func (t *tgtSorter) Len() int           { return len(t.tgts) }
func (t *tgtSorter) Less(i, j int) bool { return t.tgts[i] < t.tgts[j] }
func (t *tgtSorter) Swap(i, j int) {
	t.tgts[i], t.tgts[j] = t.tgts[j], t.tgts[i]
	t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
}

// searchPays is the cost rule behind selectSorted, in nanoseconds as fitted on
// the core selection benchmarks (docs/ALGORITHM.md records the fit). The
// walk visits the elements up to the last target, paying a scan of the m
// run heads for each, or a heap sift above mergeHeapThreshold runs. The
// search pays, per target, about m binary searches per pivot round over
// log2(k) rounds, k the longest run; the constant sits at the slow end of
// the fit so a dense phi list keeps the walk. Runs with weight below 1
// always take the walk: the search counts weight and cannot place them.
func searchPays(views []Weighted, nTargets int, last int64) bool {
	var elems, total int64
	m, maxLen := 0, 0
	for _, v := range views {
		if v.Weight < 1 {
			return false
		}
		n := len(v.Data)
		if n == 0 {
			continue
		}
		m++
		elems += int64(n)
		total += int64(n) * v.Weight
		if n > maxLen {
			maxLen = n
		}
	}
	if total == 0 {
		return false
	}
	frac := 1.0
	if last < total {
		frac = float64(last) / float64(total)
	}
	perElem := float64(3*m + 10)
	if m > mergeHeapThreshold {
		perElem = 8*math.Log2(float64(m)) + 5
	}
	walk := float64(elems) * frac * perElem
	search := 50 * float64(nTargets) * float64(m) * math.Log2(float64(maxLen)+1)
	return search < walk
}

// search answers each target by a rank search over the sorted runs. For a
// target t it finds the smallest value v with W(<=v) >= t, where W(<=v) sums
// weight times the number of elements <= v over the runs; that is the value
// the merge walk stops on. It keeps, per run, a window [lo, hi) of the
// elements strictly between a value known to rank below t and one known to
// rank at or above it, and halves the largest window per round: the pivot's
// rank decides which side every window keeps. The runs' elements equal to v
// are then counted in run order, which is the order the walk (linear scan
// or heap, both breaking ties toward the lower run index) consumes them, so
// the search returns the very element the walk returns.
func (sel *Selector) search(views []Weighted, targets []int64, out []float64) {
	total := TotalWeight(views)
	lo := sel.headsFor(len(views))
	hi := growInt(sel.hi, len(views))
	cut := growInt(sel.cut, len(views))
	sel.hi, sel.cut = hi, cut
	for ti, t := range targets {
		if t > total {
			t = total
		}
		// Targets ascend, so every element below the previous answer ranks
		// below this one too: lo carries over, only hi resets.
		for i, v := range views {
			hi[i] = len(v.Data)
		}
		var u float64 // the smallest value known to rank at or above t
		for {
			best, width := -1, 0
			for i := range views {
				if n := hi[i] - lo[i]; n > width {
					best, width = i, n
				}
			}
			if best < 0 {
				break
			}
			p := views[best].Data[lo[best]+width/2]
			var rank int64
			for i, v := range views {
				cut[i] = upperBound(v.Data, lo[i], hi[i], p)
				rank += int64(cut[i]) * v.Weight
			}
			if rank >= t {
				u = p
				for i, v := range views {
					hi[i] = lowerBound(v.Data, lo[i], cut[i], p)
				}
			} else {
				copy(lo, cut)
			}
		}
		out[ti] = settleTie(views, lo, t, u)
	}
}

// settleTie returns the element the merge walk stops on at position t when
// u is the value it stops on and first[i] is the index of run i's first
// element >= u: the copies of u are consumed run by run in index order, and
// within a run in position order.
func settleTie(views []Weighted, first []int, t int64, u float64) float64 {
	need := t
	for i, v := range views {
		need -= int64(first[i]) * v.Weight
	}
	for i, v := range views {
		j := first[i] + int((need-1)/v.Weight)
		if j < len(v.Data) && v.Data[j] == u {
			return v.Data[j]
		}
		end := len(v.Data)
		if j < end {
			end = j
		}
		need -= int64(upperBound(v.Data, first[i], end, u)-first[i]) * v.Weight
	}
	return u // unreachable while the search invariants hold
}

// WeightAtMost returns W(<=v), the weighted count of the elements <= v in
// the sorted runs: one binary search per run. v must not be NaN.
func WeightAtMost(views []Weighted, v float64) int64 {
	var w int64
	for _, r := range views {
		w += int64(upperBound(r.Data, 0, len(r.Data), v)) * r.Weight
	}
	return w
}

// upperBound returns the first index in [lo, hi) whose element exceeds v,
// or hi.
func upperBound(data []float64, lo, hi int, v float64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if data[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// lowerBound returns the first index in [lo, hi) whose element is at least
// v, or hi.
func lowerBound(data []float64, lo, hi int, v float64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if data[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
