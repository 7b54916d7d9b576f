package kll

import (
	"math"
	"sort"
)

// refSketch is a test-local copy of the compaction the package used before
// compactors were kept sorted: every level is an unsorted bag, sorted by
// insertion sort only when it is compacted, and queries sort all surviving
// items. It is the oracle the sorted-compactor sketch is held to.
type refSketch struct {
	k           int
	rng         uint64
	compactors  [][]float64
	caps        []int
	size        int
	budget      int
	count       int64
	min, max    float64
	compactions []int64
}

func newRef(k int, seed int64) *refSketch {
	r := &refSketch{k: k, rng: seedState(seed)}
	r.grow()
	return r
}

func (r *refSketch) coin() int {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return int(r.rng & 1)
}

func (r *refSketch) grow() {
	r.compactors = append(r.compactors, nil)
	h := len(r.compactors)
	r.caps = r.caps[:0]
	r.budget = 0
	for lvl := 0; lvl < h; lvl++ {
		c := int(math.Ceil(float64(r.k) * math.Pow(capacityRatio, float64(h-1-lvl))))
		if c < minCapacity {
			c = minCapacity
		}
		r.caps = append(r.caps, c)
		r.budget += c
	}
}

func (r *refSketch) add(v float64) {
	if r.count == 0 || v < r.min {
		r.min = v
	}
	if r.count == 0 || v > r.max {
		r.max = v
	}
	r.compactors[0] = append(r.compactors[0], v)
	r.size++
	r.count++
	if r.size >= r.budget {
		r.compress()
	}
}

func (r *refSketch) compress() {
	for guard := 0; r.size >= r.budget && guard < 1024; guard++ {
		h := -1
		for lvl, c := range r.compactors {
			if len(c) >= r.caps[lvl] {
				h = lvl
				break
			}
		}
		if h < 0 {
			return
		}
		r.compactLevel(h)
	}
}

func (r *refSketch) compactLevel(h int) {
	items := r.compactors[h]
	if len(items) < 2 {
		return
	}
	for i := 1; i < len(items); i++ { // insertion sort
		v := items[i]
		j := i - 1
		for j >= 0 && items[j] > v {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = v
	}
	var retained float64
	hasRetained := false
	if len(items)%2 == 1 {
		retained = items[len(items)-1]
		hasRetained = true
		items = items[:len(items)-1]
	}
	offset := r.coin()
	if h+1 == len(r.compactors) {
		r.grow()
	}
	promoted := 0
	for i := offset; i < len(items); i += 2 {
		r.compactors[h+1] = append(r.compactors[h+1], items[i])
		promoted++
	}
	r.compactors[h] = r.compactors[h][:0]
	if hasRetained {
		r.compactors[h] = append(r.compactors[h], retained)
	}
	r.size -= len(items) - promoted
	for len(r.compactions) <= h {
		r.compactions = append(r.compactions, 0)
	}
	r.compactions[h]++
}

func (r *refSketch) absorb(o *refSketch) {
	if o.count == 0 {
		return
	}
	if r.count == 0 {
		r.min, r.max = o.min, o.max
	} else {
		r.min, r.max = math.Min(r.min, o.min), math.Max(r.max, o.max)
	}
	for len(r.compactors) < len(o.compactors) {
		r.grow()
	}
	for h, c := range o.compactors {
		r.compactors[h] = append(r.compactors[h], c...)
		r.size += len(c)
	}
	for len(r.compactions) < len(o.compactions) {
		r.compactions = append(r.compactions, 0)
	}
	for h, m := range o.compactions {
		r.compactions[h] += m
	}
	r.count += o.count
	if r.size >= r.budget {
		r.compress()
	}
}

// quantiles answers like the old gather/sort/select path: the first item
// in value order whose cumulative weight reaches ceil(phi*count), with
// ranks 1 and count answered by the tracked extremes.
func (r *refSketch) quantiles(phis []float64) []float64 {
	type item struct {
		v float64
		w int64
	}
	var items []item
	for h, c := range r.compactors {
		for _, v := range c {
			items = append(items, item{v, int64(1) << uint(h)})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].v < items[j].v })
	out := make([]float64, len(phis))
	for i, phi := range phis {
		target := int64(math.Ceil(phi * float64(r.count)))
		target = min(max(target, 1), r.count)
		switch target {
		case 1:
			out[i] = r.min
			continue
		case r.count:
			out[i] = r.max
			continue
		}
		var cum int64
		for _, it := range items {
			cum += it.w
			if cum >= target {
				out[i] = it.v
				break
			}
		}
	}
	return out
}

func (r *refSketch) rank(v float64) int64 {
	var rank int64
	for h, c := range r.compactors {
		for _, x := range c {
			if x <= v {
				rank += int64(1) << uint(h)
			}
		}
	}
	return rank
}
