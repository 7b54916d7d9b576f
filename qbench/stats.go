package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so the ladder steps down instead.
const minBeyond = 10

// percentileLadder lists the percentiles a tail metric may fall back to,
// highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rankOf is the 1-based nearest-rank index of percentile p among n samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile at or below want that
// still has at least minBeyond of n samples beyond it. It returns 0 when n
// is too small for even the median to qualify.
func tailPercentile(want float64, n int) float64 {
	for _, p := range percentileLadder {
		if p > want {
			continue
		}
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// dist is a sample of durations or other values, reported by percentiles.
// Samples added with addAt also keep when they were taken, for windowed
// statistics.
type dist struct {
	v      []float64
	t      []int64 // unix ns per sample, when added with addAt
	sorted bool
}

func (d *dist) add(x float64)             { d.v = append(d.v, x); d.sorted = false }
func (d *dist) addDur(x time.Duration)    { d.add(float64(x) / float64(time.Millisecond)) }
func (d *dist) addMicros(x time.Duration) { d.add(float64(x) / float64(time.Microsecond)) }
func (d *dist) n() int                    { return len(d.v) }

// addAt records a duration in ms taken at time at.
func (d *dist) addAt(at time.Time, x time.Duration) {
	d.addDur(x)
	d.t = append(d.t, at.UnixNano())
}

// merge appends another timed sample.
func (d *dist) merge(o *dist) {
	d.v = append(d.v, o.v...)
	d.t = append(d.t, o.t...)
	d.sorted = false
}

// windowSamples is how many samples one window of a windowed statistic
// needs: enough for its own p99 to have ten samples beyond it.
const windowSamples = 1000

// maxWindows caps how many windows a windowed statistic is split into.
const maxWindows = 5

// windows splits a timed sample into k consecutive windows of equal sample
// count, k = n/windowSamples clamped to [1, maxWindows]. A burst of noise
// on a shared host then spoils one window, not the reported median.
func (d *dist) windows() []*dist {
	if len(d.t) != len(d.v) {
		panic("dist: windows over samples without timestamps")
	}
	idx := make([]int, len(d.v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d.t[idx[a]] < d.t[idx[b]] })
	k := min(max(len(idx)/windowSamples, 1), maxWindows)
	out := make([]*dist, k)
	for w := range out {
		out[w] = &dist{}
		for _, i := range idx[w*len(idx)/k : (w+1)*len(idx)/k] {
			out[w].v = append(out[w].v, d.v[i])
			out[w].t = append(out[w].t, d.t[i])
		}
	}
	return out
}

// windowed returns the median over windows() of each window's percentile
// p (by the tail rule for p above 50), the lowest percentile any window
// had to fall back to, and the window count.
func (d *dist) windowed(p float64) (pct, value float64, k int) {
	ws := d.windows()
	var per []float64
	pct = p
	for _, w := range ws {
		wp, v := p, w.at(p)
		if p > 50 {
			wp, v = w.tail(p)
		}
		pct = min(pct, wp)
		per = append(per, v)
	}
	return pct, median(per), len(ws)
}

// windowedRate is the median over windows() of samples per second.
func (d *dist) windowedRate() float64 {
	var per []float64
	for _, w := range d.windows() {
		// n samples span n-1 gaps.
		if span := float64(w.t[len(w.t)-1]-w.t[0]) / 1e9; span > 0 {
			per = append(per, float64(len(w.t)-1)/span)
		}
	}
	return median(per)
}

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
}

// at returns the nearest-rank percentile p, or NaN on an empty sample.
func (d *dist) at(p float64) float64 {
	if len(d.v) == 0 {
		return math.NaN()
	}
	d.sort()
	return d.v[rankOf(p, len(d.v))-1]
}

// tail returns the highest percentile at or below want the sample size
// supports (see tailPercentile) and its value; p is 0 and the value NaN
// when the sample is too small.
func (d *dist) tail(want float64) (p, value float64) {
	p = tailPercentile(want, len(d.v))
	if p == 0 {
		return 0, math.NaN()
	}
	return p, d.at(p)
}

// median of a small set of repeated measurements (set-up, recovery).
func median(xs []float64) float64 {
	d := dist{v: append([]float64(nil), xs...)}
	return d.at(50)
}

// ratio is num/den with its base kept, so reports can say what a ratio is
// a share of. A zero base yields 0, never NaN.
type ratio struct {
	num, den float64
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

// busyRatio is the share of the apply pool's capacity spent applying over
// a sampling interval: busy-seconds gained divided by wall seconds times
// workers.
func busyRatio(busyStart, busyEnd, wallSeconds float64, workers int) ratio {
	return ratio{num: busyEnd - busyStart, den: wallSeconds * float64(workers)}
}

// perMillion scales a count per value ingested to a count per million
// values.
func perMillion(count, values float64) ratio {
	return ratio{num: count * 1e6, den: values}
}
