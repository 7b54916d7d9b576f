package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"mrl/internal/validate"
)

func TestScheduleDueIsIndependentOfProgress(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 200, 10) // one op every 5ms
	if got := s.due(0); !got.Equal(start) {
		t.Fatalf("due(0) = %v, want the schedule start", got)
	}
	if got, want := s.due(7).Sub(start), 35*time.Millisecond; got != want {
		t.Fatalf("due(7) offset = %v, want %v", got, want)
	}
}

func TestLatenessAndLatencyCountFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	if l := lateness(due, due.Add(-time.Millisecond)); l != 0 {
		t.Fatalf("early send lateness = %v, want 0", l)
	}
	if l := lateness(due, due.Add(3*time.Millisecond)); l != 3*time.Millisecond {
		t.Fatalf("late send lateness = %v, want 3ms", l)
	}
	// A send stalled 40ms behind its predecessor and acked 2ms after it
	// went out still reports 42ms: the stall is the server's queueing.
	if got := opLatency(due, due.Add(42*time.Millisecond)); got != 42*time.Millisecond {
		t.Fatalf("latency = %v, want 42ms", got)
	}
}

func TestWaitDueSeparatesGeneratorLatenessFromQueueing(t *testing.T) {
	s := newSchedule(time.Now().Add(-50*time.Millisecond), 1000, 100)
	// Due 50ms ago: the writer was blocked, so this is queueing, not
	// generator lateness.
	if l, slept := s.waitDue(0); slept || l != 0 {
		t.Fatalf("past due: lateness %v slept %v, want 0 false", l, slept)
	}
	// Due in the future: the generator sleeps and reports its oversleep.
	if l, slept := s.waitDue(99); !slept || l < 0 || l > 50*time.Millisecond {
		t.Fatalf("future due: lateness %v slept %v, want a small oversleep", l, slept)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		p    float64
	}{
		{n: 100000, want: 99, p: 99},
		{n: 10010, want: 99.9, p: 99.9},
		{n: 10000, want: 99.9, p: 99.9}, // rank 9990 leaves exactly 10 beyond
		{n: 1000, want: 99, p: 99},
		{n: 999, want: 99, p: 95},
		{n: 200, want: 99, p: 95},
		{n: 199, want: 99, p: 90},
		{n: 20, want: 99, p: 50},
		{n: 19, want: 99, p: 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.want, c.n); got != c.p {
			t.Errorf("tailPercentile(%v, %d) = %v, want %v", c.want, c.n, got, c.p)
		}
	}
}

func TestDistNearestRank(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	if got := d.at(50); got != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", got)
	}
	if got := d.at(99); got != 99 {
		t.Fatalf("p99 of 1..100 = %v, want 99", got)
	}
	p, v := d.tail(99)
	if p != 90 || v != 90 {
		t.Fatalf("tail(99) of 100 samples = p%v %v, want p90 90", p, v)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

func TestRatioBases(t *testing.T) {
	if got := (ratio{num: 3, den: 0}).value(); got != 0 {
		t.Fatalf("zero-base ratio = %v, want 0", got)
	}
	// Two workers busy 1.5s between samples 1s apart: 75% of capacity.
	if got := busyRatio(10, 11.5, 1, 2).value(); got != 0.75 {
		t.Fatalf("busy ratio = %v, want 0.75", got)
	}
	if got := perMillion(12, 4_000_000).value(); got != 3 {
		t.Fatalf("per-million = %v, want 3", got)
	}
}

// TestRankErrorMatchesValidate holds the oracle's scoring to the repo's own
// exact evaluator on random prefixes, including estimates absent from the
// data and out of range.
func TestRankErrorMatchesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := permutation(rng, 500)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(len(stream))
		prefix := stream[:n]
		phi := rng.Float64()
		est := float64(rng.Intn(560) - 30)
		if trial%5 == 0 {
			est += 0.5
		}
		rep, err := validate.Evaluate("t", prefix, []float64{phi}, []float64{est})
		if err != nil {
			t.Fatal(err)
		}
		tree := make(fenwick, len(stream)+1)
		for _, v := range prefix {
			tree.add(int(v))
		}
		less := tree.sum(int(math.Ceil(est)) - 1)
		leq := tree.sum(int(math.Floor(est)))
		if est < 1 {
			less, leq = 0, 0
		}
		if got, want := rankError(phi, int64(n), less, leq), rep.Results[0].RankError; got != want {
			t.Fatalf("n=%d phi=%v est=%v: rank error %d, validate says %d", n, phi, est, got, want)
		}
	}
}

func TestCheckAnswersFlagsViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stream := permutation(rng, 1000)
	exactMedian := func(c int) float64 {
		tree := make(fenwick, len(stream)+1)
		for _, v := range stream[:c] {
			tree.add(int(v))
		}
		target := int64(math.Ceil(0.5 * float64(c)))
		for v := 1; v <= len(stream); v++ {
			if tree.sum(v) >= target && tree.sum(v-1) < target {
				return float64(v)
			}
		}
		return math.NaN()
	}
	good := &answer{stream: 0, label: "good", phis: []float64{0.5}, values: []float64{exactMedian(600)}, count: 600, bound: 0, wantCount: -1}
	res := checkAnswers([][]float64{stream}, []*answer{good})
	if res.violations != 0 || res.checked != 1 {
		t.Fatalf("exact answer: %+v", res)
	}

	// Off by more than its bound: one violation.
	m := exactMedian(600)
	off := &answer{stream: 0, label: "off", phis: []float64{0.5}, values: []float64{m}, count: 600, bound: 0, wantCount: -1}
	off.values[0] = findValueAtRankOffset(stream[:600], m, 20)
	if res := checkAnswers([][]float64{stream}, []*answer{off}); res.violations != 1 {
		t.Fatalf("answer 20 ranks off with bound 0: %+v", res)
	}
	off.bound = 20
	if res := checkAnswers([][]float64{stream}, []*answer{off}); res.violations != 0 {
		t.Fatalf("answer 20 ranks off with bound 20: %+v", res)
	}

	lost := &answer{stream: 0, label: "lost", phis: []float64{0.5}, values: []float64{m}, count: 599, bound: 5, wantCount: 600}
	if res := checkAnswers([][]float64{stream}, []*answer{lost}); res.violations != 1 {
		t.Fatalf("count below the acked total must fail: %+v", res)
	}
	// A live answer older than the acks seen before it was asked is
	// counted as stale, and still rank-checked over the prefix it covers.
	stale := &answer{stream: 0, label: "stale", phis: []float64{0.5}, values: []float64{m}, count: 600, bound: 5, minCount: 601, wantCount: -1}
	if res := checkAnswers([][]float64{stream}, []*answer{stale}); res.stale != 1 || res.violations != 0 {
		t.Fatalf("read-your-acks miss with an in-bound answer: %+v", res)
	}
	stale.bound = 0
	stale.values[0] = off.values[0]
	if res := checkAnswers([][]float64{stream}, []*answer{stale}); res.stale != 1 || res.violations != 1 {
		t.Fatalf("read-your-acks miss with an out-of-bound answer: %+v", res)
	}
}

// findValueAtRankOffset returns the element of data whose rank is off
// ranks above v's.
func findValueAtRankOffset(data []float64, v float64, off int) float64 {
	rank := 0
	for _, x := range data {
		if x <= v {
			rank++
		}
	}
	want := rank + off
	for _, x := range data {
		r := 0
		for _, y := range data {
			if y <= x {
				r++
			}
		}
		if r == want {
			return x
		}
	}
	return math.NaN()
}

// TestBenchmarkManifestMatchesReport keeps BENCHMARK.json and the metric
// lists the command prints in step.
func TestBenchmarkManifestMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest next to the benchmark: %v", err)
	}
	var m struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(m.EndToEnd); !slices.Equal(got, e2eMetrics) {
		t.Errorf("end_to_end %v, command reports %v", got, e2eMetrics)
	}
	if got := names(m.PerLayer); !slices.Equal(got, perLayerMetrics) {
		t.Errorf("per_layer %v, command reports %v", got, perLayerMetrics)
	}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("manifest workload %q is not implemented", w.Name)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, command implements %d", len(m.Workloads), len(workloads))
	}
}

// TestWindowedMedianIgnoresOneNoisyWindow checks the windowed statistic:
// equal-count windows in time order, the median over their percentiles.
func TestWindowedMedianIgnoresOneNoisyWindow(t *testing.T) {
	var d dist
	start := time.Unix(0, 0)
	for i := 0; i < 5*windowSamples; i++ {
		lat := time.Millisecond
		if i/windowSamples == 2 { // the middle window ran on a noisy host
			lat = 9 * time.Millisecond
		}
		d.addAt(start.Add(time.Duration(i)*time.Millisecond), lat)
	}
	pct, v, k := d.windowed(99)
	if k != maxWindows || pct != 99 || v != 1 {
		t.Fatalf("windowed p99 = p%v %v over %d windows, want p99 1 over %d", pct, v, k, maxWindows)
	}
	if got := d.windowedRate(); math.Abs(got-1000) > 1 {
		t.Fatalf("windowed rate = %v/s, want 1000/s (one sample per ms)", got)
	}
	var few dist
	for i := 0; i < 300; i++ {
		few.addAt(start.Add(time.Duration(i)*time.Millisecond), time.Duration(i)*time.Microsecond)
	}
	if pct, _, k := few.windowed(99); k != 1 || pct != 95 {
		t.Fatalf("300 samples: p%v over %d windows, want p95 over 1", pct, k)
	}
}
