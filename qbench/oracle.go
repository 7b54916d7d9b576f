package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// permutation returns 1..n as float64 in a seeded random order: every
// metric stream is one, so its exact rank structure is known without
// sorting and the oracle below can rank any prefix in O(log n).
func permutation(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// answer is one served quantile answer, kept for the oracle check.
type answer struct {
	stream int // index of the metric stream the answer summarises
	label  string
	phis   []float64
	values []float64
	count  int64
	bound  float64
	// minCount is the number of values acknowledged before the query was
	// sent: read-your-acks requires the answer to cover at least these.
	minCount int64
	// wantCount, when non-negative, is the exact count the answer must
	// report (final answers after all writes were acknowledged).
	wantCount int64
	// height and partial are the cluster coordinator's merge report.
	height  int
	partial bool
}

// rankError scores estimate against the exact multiset whose counts below
// and at-or-below it are less and leq, for a target rank derived from phi
// over n elements. It mirrors internal/validate.Evaluate: the target is
// ceil(phi*n) clamped to [1, n], and an estimate absent from the data is
// scored by its insertion point.
func rankError(phi float64, n, less, leq int64) int64 {
	target := int64(math.Ceil(phi * float64(n)))
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	lo, hi := less+1, leq
	switch {
	case target >= lo && target <= hi:
		return 0
	case target < lo:
		if hi < lo {
			if e := lo - 1 - target; e > 0 {
				return e
			}
			return 0
		}
		return lo - target
	default:
		if hi < lo {
			if e := target - lo; e > 0 {
				return e
			}
			return 0
		}
		return target - hi
	}
}

// fenwick counts inserted integers 1..n and answers prefix counts.
type fenwick []int64

func (f fenwick) add(i int) {
	for ; i < len(f); i += i & -i {
		f[i]++
	}
}

// sum counts inserted values in [1, i].
func (f fenwick) sum(i int) int64 {
	if i >= len(f) {
		i = len(f) - 1
	}
	var s int64
	for ; i > 0; i -= i & -i {
		s += f[i]
	}
	return s
}

// checkResult is the outcome of checking a set of answers.
type checkResult struct {
	checked    int // answers examined
	violations int // answers with a bad count or a rank error beyond their bound
	// stale counts live answers covering fewer values than were acked
	// before the query was sent (a read-your-acks miss). Their rank error
	// is still checked against the prefix they do cover.
	stale      int
	firstStale string
	firstError string
}

func (c *checkResult) fail(format string, args ...any) {
	c.violations++
	if c.firstError == "" {
		c.firstError = fmt.Sprintf(format, args...)
	}
}

// checkAnswers verifies every answer against the exact prefix of its
// stream it claims to cover. Writes to one metric are applied in stream
// order, so an answer reporting count c summarises exactly stream[:c]; the
// sweep sorts answers by count and grows one Fenwick tree per stream.
func checkAnswers(streams [][]float64, answers []*answer) checkResult {
	var res checkResult
	byStream := make([][]*answer, len(streams))
	for _, a := range answers {
		byStream[a.stream] = append(byStream[a.stream], a)
	}
	for si, list := range byStream {
		if len(list) == 0 {
			continue
		}
		stream := streams[si]
		sort.SliceStable(list, func(i, j int) bool { return list[i].count < list[j].count })
		tree := make(fenwick, len(stream)+1)
		applied := 0
		for _, a := range list {
			res.checked++
			switch {
			case a.count <= 0 || a.count > int64(len(stream)):
				res.fail("%s: count %d outside (0, %d]", a.label, a.count, len(stream))
				continue
			case a.wantCount >= 0 && a.count != a.wantCount:
				res.fail("%s: count %d, want exactly %d acked values", a.label, a.count, a.wantCount)
				continue
			}
			if a.count < a.minCount {
				res.stale++
				if res.firstStale == "" {
					res.firstStale = fmt.Sprintf("%s: count %d below the %d values acked before the query", a.label, a.count, a.minCount)
				}
			}
			for ; applied < int(a.count); applied++ {
				tree.add(int(stream[applied]))
			}
			for i, phi := range a.phis {
				v := a.values[i]
				less := tree.sum(int(math.Ceil(v)) - 1)
				leq := tree.sum(int(math.Floor(v)))
				if v < 1 {
					less, leq = 0, 0
				}
				if e := rankError(phi, a.count, less, leq); float64(e) > a.bound {
					res.fail("%s: phi %v answered %v with rank error %d beyond the served bound %.1f (count %d)",
						a.label, phi, v, e, a.bound, a.count)
					break
				}
			}
		}
	}
	return res
}
