package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// query-live: one node holding one preloaded metric per backend; a
// closed-loop querier asks all-time and windowed answers while an
// open-loop JSON writer posts small synchronous batches to the same
// metrics. Each metric is written every 12ms and each of the 18 query keys
// comes round about every 40ms, so nearly every query follows a write and
// misses the query cache: a mix near half hits would put the median on the
// boundary between 0.1ms hits and 1-20ms misses. ingest-bin's query phase
// covers the hits.
const (
	qlPreload      = 300_000 // values per metric loaded during set-up
	qlPreloadBatch = 4096
	qlWriteRate    = 250.0 // POST /ingest requests per second
	qlQueryWindow  = 500   // queries per CPU-cost window: about one second
	qlWriteBatch   = 64
)

var (
	qlMetrics  = []string{"ql.mrl", "ql.kll", "ql.weighted"}
	qlBackends = []string{"mrl", "kll", "weighted"}
)

type qlPlan struct {
	streams  [][]float64
	requests int // live requests; request i writes chunk i/3 of metric i%3
}

func (b *bench) qlPlan() *qlPlan {
	n := int(qlWriteRate * b.seconds)
	n -= n % len(qlMetrics)
	p := &qlPlan{requests: n}
	rng := b.rng(2)
	for range qlMetrics {
		p.streams = append(p.streams, permutation(rng, qlPreload+n/len(qlMetrics)*qlWriteBatch))
	}
	return p
}

func (p *qlPlan) live(i int) (m int, vs []float64) {
	m = i % len(qlMetrics)
	off := qlPreload + i/len(qlMetrics)*qlWriteBatch
	return m, p.streams[m][off : off+qlWriteBatch]
}

// preloadBin loads the first n values of each stream over one sessioned
// MRLB connection.
func (b *bench) preloadBin(d *daemon, metrics []string, streams [][]float64, n, batch, role int) error {
	bc, err := dialBin(d.binAddr, b.sessionID(role), metrics, binWindow)
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	for off := 0; off < n; off += batch {
		for m := range metrics {
			if err := bc.send(uint32(m+1), streams[m][off:min(off+batch, n)], time.Now(), 0); err != nil {
				_ = bc.finish()
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	if err := bc.finish(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if bc.errs > 0 {
		return fmt.Errorf("preload: %d batches refused: %v", bc.errs, bc.lastErr)
	}
	return nil
}

func (b *bench) runQueryLive(ctx context.Context) (*outcome, error) {
	o := &outcome{e2e: make(map[string]metricValue)}
	p := b.qlPlan()
	preloaded := make([]int64, len(qlMetrics))
	want := make([]int64, len(qlMetrics))
	for m := range qlMetrics {
		preloaded[m] = qlPreload
		want[m] = int64(len(p.streams[m]))
	}
	spec := ""
	for m, name := range qlMetrics {
		if m > 0 {
			spec += ","
		}
		spec += name + "=" + qlBackends[m]
	}

	qc := newHTTPClient()
	defer qc.CloseIdleConnections()
	var d *daemon
	var setups []float64
	preloadCPU := &cpuMeter{}
	for rep := 0; rep < setupRepeats; rep++ {
		if d != nil {
			b.procs.kill(d)
		}
		dir, err := b.dir(fmt.Sprintf("node-setup%d", rep))
		if err != nil {
			return nil, err
		}
		d, err = b.procs.newDaemon(fmt.Sprintf("%s-ql-node%d", b.pass, rep), true, nodeFlags(dir, servedEpsilon, servedN, "-metrics", spec)...)
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
		if err := preloadCPU.begin(d); err != nil {
			return nil, err
		}
		if err := b.preloadBin(d, qlMetrics, p.streams, qlPreload, qlPreloadBatch, 100+rep); err != nil {
			return nil, err
		}
		if err := waitCounts(ctx, qc, d.base, qlMetrics, preloaded, 60*time.Second); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := preloadCPU.window(qlPreload * len(qlMetrics)); err != nil {
			return nil, err
		}
		o.walDirs = []string{dir}
	}
	o.set("setup_s", median(setups), "s")
	o.setIngestCPU(preloadCPU)
	var smp *sampler
	if b.tr != nil {
		smp = startSampler([]string{d.base}, 100*time.Millisecond)
	}

	w := &httpWriter{c: newHTTPClient(), acked: make([]atomic.Int64, len(qlMetrics))}
	defer w.c.CloseIdleConnections()
	q := &querier{c: qc}
	cpu, err := newCPUMeter(d)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(d)
	var asked int
	var cpuErr error
	liveRun(func() {
		w.run(b.tr, d.base+"/ingest", "application/json", qlWriteRate, p.requests, func(i int) ([]byte, []int) {
			m, vs := p.live(i)
			counts := make([]int, len(qlMetrics))
			counts[m] = len(vs)
			return jsonIngestBody(qlMetrics[m], vs), counts
		})
	}, func(stop <-chan struct{}) {
		for ; !stopped(stop); asked++ {
			i := asked
			m := i % len(qlMetrics)
			windowed := (i/len(qlMetrics))%2 == 1
			minCount := qlPreload + w.acked[m].Load()
			phis := phiSets[(i/(2*len(qlMetrics)))%len(phiSets)]
			q.ask(b.tr, d.base, qlMetrics[m], m, phis, windowed, minCount, -1)
			if (i+1)%qlQueryWindow == 0 && cpuErr == nil {
				cpuErr = cpu.window(qlQueryWindow)
			}
		}
	})
	if cpuErr == nil {
		cpuErr = cpu.finish(asked % qlQueryWindow)
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	o.setQueryCPU(cpu)
	o.setRSS(rss)
	if smp != nil {
		o.samples = smp.stop()
	}
	o.lateness = w.lateness
	o.attempted += int64(p.requests)
	o.fail(w.errs, fmt.Sprint(w.lastErr))
	o.set("ingest_values_per_s", float64(w.values)/w.last.Sub(w.first).Seconds(), "1/s")
	o.setDist("ack_p50_ms", &w.lat, 50, "ms")
	o.setDist("ack_p99_ms", &w.lat, 99, "ms")
	o.setDist("query_p50_ms", &q.lat, 50, "ms")
	o.setDist("query_p99_ms", &q.lat, 99, "ms")
	o.setRate("queries_per_s", &q.lat)
	if ms, err := getMetricsz(qc, d.base); err == nil {
		o.cacheHits, o.cacheMisses = ms.QueryCache.Hits, ms.QueryCache.Misses
	}

	var finals []*answer
	for m, name := range qlMetrics {
		for _, windowed := range []bool{false, true} {
			if a := q.ask(b.tr, d.base, name, m, finalPhis, windowed, want[m], want[m]); a != nil {
				finals = append(finals, a)
			}
		}
	}
	peak, err := vmHWM(d)
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", peak, "MiB")
	if err := o.setMemoryElements(qc, d); err != nil {
		return nil, err
	}

	recov, replayed, err := b.crashRecover(ctx, []*daemon{d}, d, qlMetrics, want, qc, o)
	if err != nil {
		return nil, err
	}
	o.set("recover_s", median(recov), "s")
	o.recoverS, o.replayed = median(recov), replayed
	for m, name := range qlMetrics {
		if a := q.ask(b.tr, d.base, name, m, finalPhis, false, want[m], want[m]); a != nil {
			finals = append(finals, a)
		}
	}
	o.attempted += int64(q.lat.n() + int(q.errs))
	o.fail(q.errs, fmt.Sprint(q.lastErr))
	o.checkAll(p.streams, q.answers, finals, 0)
	return o, nil
}
