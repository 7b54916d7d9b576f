package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// ingest-bin: one node, two sessioned MRLB TCP connections streaming
// permutations into a few MRL metrics — an open-loop phase at a fixed rate
// well below saturation (ack latency), a fixed-volume saturated phase
// (throughput; the WAL ends the same size every run), then kill -9 and
// timed recovery.
const (
	ibMetrics     = 4
	ibBatch       = 512
	ibConns       = 2
	ibOpenRate    = 250.0 // batches per second per connection
	ibOpenShare   = 0.35  // share of --seconds spent in the open-loop phase
	ibSatValues   = 1_000_000
	ibSatReps     = 12 // saturated phases of ibSatValues each; the median rate is reported
	ibQueryShare  = 0.35
	ibQueryRate   = 250.0 // open-loop queries per second over the settled node
	ibQueryWindow = 100   // queries per CPU-cost window: 50 misses, 50 hits
	ibCountWindow = 60 * time.Second
	// A bare launch takes a few milliseconds, so ingest-bin sets up more
	// often than the preloading workloads for an equally steady median.
	ibSetupRepeats = 41
)

// ibPlan is the generated input of one ingest-bin pass: batch j carries
// chunk j/ibMetrics of metric j%ibMetrics and rides connection j%ibConns,
// so each metric's stream arrives in order on one connection.
type ibPlan struct {
	metrics   []string
	streams   [][]float64
	openBatch int // batches in the open-loop phase
	satBatch  int // batches in each saturated phase
	total     int // all batches
}

// wantAfter is the values of each metric in batches [0, j).
func (p *ibPlan) wantAfter(j int) []int64 {
	want := make([]int64, ibMetrics)
	for m := range want {
		want[m] = int64(j / ibMetrics * ibBatch)
	}
	return want
}

func (p *ibPlan) batch(j int) (id uint32, vs []float64) {
	m, chunk := j%ibMetrics, j/ibMetrics
	return uint32(m + 1), p.streams[m][chunk*ibBatch : (chunk+1)*ibBatch]
}

func (b *bench) ibPlan() *ibPlan {
	openPerConn := int(ibOpenRate * b.seconds * ibOpenShare)
	open := openPerConn * ibConns
	open -= open % (ibMetrics * ibConns)
	sat := ibSatValues / ibBatch
	sat -= sat % (ibMetrics * ibConns)
	p := &ibPlan{openBatch: open, satBatch: sat, total: open + sat*ibSatReps}
	rng := b.rng(1)
	for m := 0; m < ibMetrics; m++ {
		p.metrics = append(p.metrics, fmt.Sprintf("ib.m%d", m))
		p.streams = append(p.streams, permutation(rng, p.total/ibMetrics*ibBatch))
	}
	return p
}

// ibPhis is the φ list of query key k of n: the median and one φ no other
// key asks, so the key's first query misses the query cache.
func ibPhis(k, n int) string {
	return fmt.Sprintf("0.5,%.6f", float64(k+1)/float64(n+1))
}

// ibSend streams batches [from, to) over ibConns fresh sessions. With
// rate > 0 each connection follows an open-loop schedule; otherwise it
// sends as fast as its window allows.
func (b *bench) ibSend(d *daemon, p *ibPlan, from, to int, rate float64, role int, o *outcome) (dist, error) {
	var lat dist
	conns := make([]*binConn, ibConns)
	for c := range conns {
		bc, err := dialBin(d.binAddr, b.sessionID(role+c), p.metrics, binWindow)
		if err != nil {
			for _, prev := range conns[:c] {
				_ = prev.finish()
			}
			return lat, fmt.Errorf("dial binary ingest: %w", err)
		}
		if b.tr != nil {
			bc.onAck = func(pb pendingBatch, at time.Time) {
				b.tr.record("ingest.ack", pb.span, pb.sent, at)
			}
		}
		conns[c] = bc
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	sendErr := make([]error, ibConns)
	start := time.Now().Add(5 * time.Millisecond)
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bc := conns[c]
			var mine []int
			for j := from; j < to; j++ {
				if j%ibConns == c {
					mine = append(mine, j)
				}
			}
			// Connections interleave their slots by half an interval.
			s := newSchedule(start.Add(time.Duration(float64(c)/float64(ibConns)*float64(time.Second)/max(rate, 1))), max(rate, 1), len(mine))
			var late dist
			for i, j := range mine {
				due := time.Now()
				if rate > 0 {
					l, slept := s.waitDue(i)
					if slept {
						late.addDur(l)
					}
					due = s.due(i)
				}
				id, vs := p.batch(j)
				sent := time.Now()
				op := b.tr.record("ingest.due", 0, due, sent)
				if err := bc.send(id, vs, due, op); err != nil {
					sendErr[c] = err
					break
				}
			}
			mu.Lock()
			o.lateness.v = append(o.lateness.v, late.v...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	for c, bc := range conns {
		err := bc.finish()
		if err == nil {
			err = sendErr[c]
		}
		bc.mu.Lock()
		o.attempted += bc.batches
		if sendErr[c] != nil {
			o.attempted++
		}
		o.fail(bc.errs, fmt.Sprint(bc.lastErr))
		lat.merge(&bc.latency)
		bc.mu.Unlock()
		if err != nil {
			o.fail(1, fmt.Sprintf("binary connection %d: %v", c, err))
		}
	}
	return lat, nil
}

func (b *bench) runIngestBin(ctx context.Context) (*outcome, error) {
	o := &outcome{e2e: make(map[string]metricValue)}
	p := b.ibPlan()
	want := p.wantAfter(p.total)

	// Set up from scratch several times; the last daemon serves the run.
	var d *daemon
	var setups []float64
	for rep := 0; rep < ibSetupRepeats; rep++ {
		if d != nil {
			b.procs.kill(d)
		}
		dir, err := b.dir(fmt.Sprintf("node-setup%d", rep))
		if err != nil {
			return nil, err
		}
		d, err = b.procs.newDaemon(fmt.Sprintf("%s-ib-node%d", b.pass, rep), true, nodeFlags(dir, servedEpsilon, servedN)...)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := b.procs.start(d); err != nil {
			return nil, err
		}
		if err := waitHealthy(ctx, d, 30*time.Second); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		o.walDirs = []string{dir}
	}
	o.set("setup_s", median(setups), "s")
	var smp *sampler
	if b.tr != nil {
		smp = startSampler([]string{d.base}, 100*time.Millisecond)
	}

	rss := sampleRSS(d)
	// Open-loop phase: ack latency at a fixed rate.
	ackLat, err := b.ibSend(d, p, 0, p.openBatch, ibOpenRate, 0, o)
	if err != nil {
		return nil, err
	}
	o.setDist("ack_p50_ms", &ackLat, 50, "ms")
	o.setDist("ack_p99_ms", &ackLat, 99, "ms")

	// Saturated phases: fixed volume each, timed until a query counts it all.
	qc := newHTTPClient()
	defer qc.CloseIdleConnections()
	var rates []float64
	cpu, err := newCPUMeter(d)
	if err != nil {
		return nil, err
	}
	for r := 0; r < ibSatReps; r++ {
		from := p.openBatch + r*p.satBatch
		t0 := time.Now()
		if _, err := b.ibSend(d, p, from, from+p.satBatch, 0, ibConns*(r+1), o); err != nil {
			return nil, err
		}
		o.attempted++
		if err := waitCounts(ctx, qc, d.base, p.metrics, p.wantAfter(from+p.satBatch), ibCountWindow); err != nil {
			o.fail(1, "after saturated ingest: "+err.Error())
		}
		rates = append(rates, float64(p.satBatch*ibBatch)/time.Since(t0).Seconds())
		if err := cpu.window(p.satBatch * ibBatch); err != nil {
			return nil, err
		}
	}
	satValues := ibSatReps * p.satBatch * ibBatch
	o.e2e["ingest_values_per_s"] = metricValue{value: median(rates), unit: "1/s", n: satValues, windows: ibSatReps}
	o.setIngestCPU(cpu)
	if smp != nil {
		o.samples = smp.stop()
	}

	// A light open-loop query load over the settled node, windowed and
	// all-time: queries are almost absent from this workload. Queries come
	// in pairs on one key: the first asks a φ list no earlier query used, so
	// it misses the query cache and runs the §4.9 merge; the second repeats
	// it and hits. Half the queries exercise the cache and half bypass it.
	q := &querier{c: qc}
	if cpu, err = newCPUMeter(d); err != nil {
		return nil, err
	}
	qs := newSchedule(time.Now(), ibQueryRate, int(ibQueryRate*b.seconds*ibQueryShare))
	for i := 0; i < qs.n; i++ {
		if late, slept := qs.waitDue(i); slept {
			o.lateness.addDur(late)
		}
		key := i / 2
		m := key % ibMetrics
		windowed := (key/ibMetrics)%2 == 1
		q.askDue(b.tr, qs.due(i), d.base, p.metrics[m], m, ibPhis(key, qs.n), windowed, want[m], want[m])
		if (i+1)%ibQueryWindow == 0 {
			if err := cpu.window(ibQueryWindow); err != nil {
				return nil, err
			}
		}
	}
	if err := cpu.finish(qs.n % ibQueryWindow); err != nil {
		return nil, err
	}
	o.setQueryCPU(cpu)
	o.setRSS(rss)
	o.setDist("query_p50_ms", &q.lat, 50, "ms")
	o.setDist("query_p99_ms", &q.lat, 99, "ms")
	o.setRate("queries_per_s", &q.lat)
	var finals []*answer
	for m, name := range p.metrics {
		for _, w := range []bool{false, true} {
			if a := q.ask(b.tr, d.base, name, m, finalPhis, w, want[m], want[m]); a != nil {
				finals = append(finals, a)
			}
		}
	}
	if ms, err := getMetricsz(qc, d.base); err == nil {
		o.cacheHits, o.cacheMisses = ms.QueryCache.Hits, ms.QueryCache.Misses
	}

	peak, err := vmHWM(d)
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", peak, "MiB")
	if err := o.setMemoryElements(qc, d); err != nil {
		return nil, err
	}

	// Crash and recover: every acked value back, none twice.
	recov, replayed, err := b.crashRecover(ctx, []*daemon{d}, d, p.metrics, want, qc, o)
	if err != nil {
		return nil, err
	}
	o.set("recover_s", median(recov), "s")
	o.recoverS, o.replayed = median(recov), replayed
	for m, name := range p.metrics {
		if a := q.ask(b.tr, d.base, name, m, finalPhis, false, want[m], want[m]); a != nil {
			finals = append(finals, a)
		}
	}
	o.attempted += int64(q.lat.n() + int(q.errs))
	o.fail(q.errs, fmt.Sprint(q.lastErr))
	o.checkAll(p.streams, q.answers, finals, 0)
	return o, nil
}

// crashRecover kills the storage nodes with SIGKILL, restarts them on the
// same data directories and times how long until queryBase serves exactly
// the acked counts; it repeats recoveryRepeats times. It returns the
// recovery times and the values the nodes replayed on the last restart.
func (b *bench) crashRecover(ctx context.Context, nodes []*daemon, queryBase *daemon, metrics []string, want []int64, qc *http.Client, o *outcome) ([]float64, int64, error) {
	var times []float64
	for rep := 0; rep < recoveryRepeats; rep++ {
		for _, n := range nodes {
			b.procs.kill(n)
		}
		qc.CloseIdleConnections()
		t0 := time.Now()
		for _, n := range nodes {
			if err := b.procs.start(n); err != nil {
				return nil, 0, err
			}
		}
		for _, n := range nodes {
			if err := waitHealthy(ctx, n, 120*time.Second); err != nil {
				return nil, 0, err
			}
		}
		o.attempted++
		if err := waitCounts(ctx, qc, queryBase.base, metrics, want, 120*time.Second); err != nil {
			o.fail(1, "after restart: "+err.Error())
		}
		times = append(times, time.Since(t0).Seconds())
	}
	var replayed int64
	for _, n := range nodes {
		ms, err := getMetricsz(qc, n.base)
		if err != nil {
			return nil, 0, err
		}
		for _, m := range ms.Metrics {
			replayed += m.ReplayedValues
		}
	}
	return times, replayed, nil
}
