package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Served geometry: the flags quantiled runs with in production.
const (
	servedEpsilon = 0.001
	servedN       = 50_000_000
)

// phiSets are the quantile lists the queriers cycle through; finalPhis is
// the list every final (checked, certified) answer is asked for.
var (
	phiSets   = []string{"0.5", "0.5,0.9,0.99", "0.01,0.25,0.75,0.999"}
	finalPhis = "0.001,0.01,0.1,0.25,0.5,0.75,0.9,0.99,0.999"
)

func parsePhiList(raw string) []float64 {
	parts := strings.Split(raw, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		out[i], _ = strconv.ParseFloat(p, 64)
	}
	return out
}

// metricValue is one reported metric with its unit and, for sampled
// figures, the sample count, the percentile actually used and how many
// windows its median was taken over.
type metricValue struct {
	value   float64
	unit    string
	n       int
	pct     float64
	windows int
}

// outcome is everything one pass of a workload measured.
type outcome struct {
	e2e       map[string]metricValue
	attempted int64
	failed    int64
	firstFail string

	lateness dist // generator oversleep, ms

	// stale counts live answers that missed values acked before they were
	// asked: reported as a finding, not failed (see NOTES.md).
	stale      int
	firstStale string

	// Inputs to the per-layer report (traced pass only).
	samples     map[string][]sample
	recoverS    float64
	replayed    int64
	walDirs     []string
	cacheHits   uint64
	cacheMisses uint64
	partial     int
	clusterAns  int
}

func (o *outcome) set(name string, v float64, unit string) {
	o.e2e[name] = metricValue{value: v, unit: unit}
}

// setDist reports percentile pct of a timed sample as the median over its
// windows (see dist.windowed).
func (o *outcome) setDist(name string, d *dist, pct float64, unit string) {
	p, v, k := d.windowed(pct)
	o.e2e[name] = metricValue{value: v, unit: unit, n: d.n(), pct: p, windows: k}
}

// setRSS reports the median of a phase's resident-set samples.
func (o *outcome) setRSS(s *rssSampler) {
	v, n := s.stop()
	o.e2e["rss_mb"] = metricValue{value: v, unit: "MiB", n: n}
}

// setMemoryElements reports the summary memory the daemons hold, summed
// over their metrics as /metricsz serves it: the space the paper bounds.
func (o *outcome) setMemoryElements(c *http.Client, ds ...*daemon) error {
	var total int64
	for _, d := range ds {
		ms, err := getMetricsz(c, d.base)
		if err != nil {
			return err
		}
		for _, m := range ms.Metrics {
			total += m.MemoryElements
		}
	}
	o.set("memory_elements", float64(total), "count")
	return nil
}

// setIngestCPU reports the daemons' CPU time per value over an ingest-only
// phase: the median over the meter's windows.
func (o *outcome) setIngestCPU(m *cpuMeter) {
	o.e2e["ingest_cpu_ns_per_value"] = metricValue{value: m.perUnit(), unit: "ns", n: m.units, windows: len(m.costs)}
}

// setQueryCPU reports the daemons' CPU time per answered query: the median
// over the meter's windows.
func (o *outcome) setQueryCPU(m *cpuMeter) {
	o.e2e["query_cpu_us"] = metricValue{value: m.perUnit() / 1e3, unit: "us", n: m.units, windows: len(m.costs)}
}

// setRate reports a timed sample's windowed rate per second.
func (o *outcome) setRate(name string, d *dist) {
	o.e2e[name] = metricValue{value: d.windowedRate(), unit: "1/s", n: d.n(), windows: len(d.windows())}
}

func (o *outcome) fail(n int64, msg string) {
	if n <= 0 {
		return
	}
	o.failed += n
	if o.firstFail == "" {
		o.firstFail = msg
	}
}

// bench is one benchmark invocation's shared state.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	procs    *procs
	work     string
	tr       *tracer // nil on untraced passes
	pass     string  // subdirectory per pass, so passes never share state
}

func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1_000_003 + stream))
}

// sessionID derives a distinct, nonzero MRLB session id per role.
func (b *bench) sessionID(role int) uint64 {
	return uint64(b.seed)<<20 ^ uint64(role+1)*0x9E3779B97F4A7C15 | 1
}

func (b *bench) dir(name string) (string, error) {
	d := filepath.Join(b.work, b.pass, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// nodeFlags are the served storage-node flags: shards default to one per
// core, every batch is fsynced, windows rotate only on request so the
// windowed oracle is exact.
func nodeFlags(walDir string, eps float64, n int64, extra ...string) []string {
	f := []string{
		"-epsilon", strconv.FormatFloat(eps, 'g', -1, 64),
		"-n", strconv.FormatInt(n, 10),
		"-wal-dir", walDir,
		"-wal-sync", "every-batch",
		"-rotate-every", "0",
	}
	return append(f, extra...)
}

// setupRepeats is how many times a pass sets up from scratch; setup_s is
// the median and the last set-up serves the workload.
const setupRepeats = 9

// recoveryRepeats is how many kill -9 / restart cycles each pass times.
const recoveryRepeats = 9

// querier is the query client: one connection, one query at a time, every
// answer kept for the oracle.
type querier struct {
	c       *http.Client
	lat     dist
	answers []*answer
	errs    int64
	lastErr error
}

// ask runs one timed query and keeps the answer for checking.
func (q *querier) ask(tr *tracer, base, metric string, stream int, phis string, windowed bool, minCount, wantCount int64) *answer {
	return q.askDue(tr, time.Time{}, base, metric, stream, phis, windowed, minCount, wantCount)
}

// askDue is ask for an open-loop query due at due: its latency counts from
// the due time, not from when it was sent.
func (q *querier) askDue(tr *tracer, due time.Time, base, metric string, stream int, phis string, windowed bool, minCount, wantCount int64) *answer {
	t0 := time.Now()
	if due.IsZero() {
		due = t0
	}
	a, err := query(q.c, base, metric, phis, windowed)
	t1 := time.Now()
	op := tr.record("query", 0, due, t1)
	tr.record("query.send", op, t0, t1)
	if err != nil {
		q.errs++
		q.lastErr = err
		return nil
	}
	q.lat.addAt(t1, opLatency(due, t1))
	ans := &answer{
		stream: stream, label: fmt.Sprintf("%s window=%v", metric, windowed),
		phis: parsePhiList(phis), values: a.Values, count: a.Count, bound: a.ErrorBound,
		minCount: minCount, wantCount: wantCount, height: a.Height, partial: a.Partial,
	}
	if len(ans.values) != len(ans.phis) {
		q.errs++
		q.lastErr = fmt.Errorf("%s: %d values for %d phis", metric, len(ans.values), len(ans.phis))
		return nil
	}
	q.answers = append(q.answers, ans)
	return ans
}

// waitCounts queries each metric until it reports exactly want[i] values
// (read-your-acks drains the apply queue, so this is normally the first
// answer). A count above the acked total is a double count and fails at
// once.
func waitCounts(ctx context.Context, c *http.Client, base string, metrics []string, want []int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, m := range metrics {
		for {
			a, err := query(c, base, m, "0.5", false)
			if err == nil && a.Count == want[i] {
				break
			}
			if err == nil && a.Count > want[i] {
				return fmt.Errorf("%s: count %d exceeds the %d acked values (double count)", m, a.Count, want[i])
			}
			if time.Now().After(deadline) {
				if err != nil {
					return fmt.Errorf("%s: %w", m, err)
				}
				return fmt.Errorf("%s: count %d, want %d acked values", m, a.Count, want[i])
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// httpWriter is an open-loop writer over one HTTP connection: request i is
// due at its schedule slot and timed from then, so time a slow server
// keeps it waiting behind an earlier request counts in the latency.
type httpWriter struct {
	c        *http.Client
	lat      dist
	lateness dist
	errs     int64
	lastErr  error
	acked    []atomic.Int64 // values acked per stream
	values   int64
	first    time.Time
	last     time.Time
}

// run sends n requests at rate per second; body(i) returns the request
// body and the per-stream value counts it carries.
func (w *httpWriter) run(tr *tracer, u, contentType string, rate float64, n int, body func(i int) ([]byte, []int)) {
	s := newSchedule(time.Now(), rate, n)
	w.first = s.start
	for i := 0; i < n; i++ {
		late, slept := s.waitDue(i)
		if slept {
			w.lateness.addDur(late)
		}
		b, counts := body(i)
		sent := time.Now()
		acc, err := post(w.c, u, contentType, b)
		now := time.Now()
		op := tr.record("write", 0, s.due(i), now)
		tr.record("write.send", op, sent, now)
		total := 0
		for _, c := range counts {
			total += c
		}
		if err == nil && acc != int64(total) {
			err = fmt.Errorf("accepted %d of %d values", acc, total)
		}
		if err != nil {
			w.errs++
			w.lastErr = err
			continue
		}
		for si, c := range counts {
			w.acked[si].Add(int64(c))
		}
		w.values += int64(total)
		w.lat.addAt(now, opLatency(s.due(i), now))
		w.last = now
	}
}

// liveRun runs a writer and a closed-loop querier side by side until the
// writer's schedule is done; the querier stops with it.
func liveRun(write func(), queryLoop func(stop <-chan struct{})) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		queryLoop(stop)
	}()
	write()
	close(stop)
	wg.Wait()
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// checkAll runs the oracle over every answer and folds its verdict into o.
func (o *outcome) checkAll(streams [][]float64, answers []*answer, finals []*answer, clusterHeight int) {
	res := checkAnswers(streams, answers)
	o.attempted += int64(res.checked)
	o.fail(int64(res.violations), res.firstError)
	o.stale, o.firstStale = res.stale, res.firstStale
	worst := 0.0
	for _, a := range finals {
		if a.count > 0 && a.bound/float64(a.count) > worst {
			worst = a.bound / float64(a.count)
		}
	}
	o.set("served_epsilon", worst, "ratio")
	if clusterHeight > 0 {
		for _, a := range answers {
			o.clusterAns++
			if a.partial {
				o.partial++
			}
			if a.partial || a.height != clusterHeight {
				o.fail(1, fmt.Sprintf("%s: cluster answer partial=%v height=%d, want a full height-%d merge", a.label, a.partial, a.height, clusterHeight))
			}
		}
	}
}
