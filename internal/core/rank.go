package core

import "math"

// Rank estimates the number of input elements less than or equal to v. The
// estimate carries the same Lemma 5 guarantee as Quantiles: it is within
// ErrorBound() ranks of the true count. The duality is direct — the rank
// estimate is the weighted count of summary slots at or below v, which is
// exactly the inverse of the OUTPUT position selection.
func (s *Sketch) Rank(v float64) (int64, error) {
	views, negPad, err := s.outputViews()
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) {
		return 0, errNaNRank
	}
	r := WeightAtMost(views, v)
	// Remove the -Inf padding slots (all of which count as <= v for any
	// finite v) and clamp to the real element count.
	r -= negPad
	if r < 0 {
		r = 0
	}
	if r > s.count {
		r = s.count
	}
	return r, nil
}

// CDF estimates the fraction of input elements less than or equal to v:
// Rank(v) / Count.
func (s *Sketch) CDF(v float64) (float64, error) {
	r, err := s.Rank(v)
	if err != nil {
		return math.NaN(), err
	}
	return float64(r) / float64(s.count), nil
}

var errNaNRank = errorString("core: NaN has no rank")

// errorString is a tiny allocation-free error type.
type errorString string

func (e errorString) Error() string { return string(e) }
