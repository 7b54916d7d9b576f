package main

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mrl/internal/cluster"
)

// cluster: two storage nodes provisioned by cluster.NodeProvision behind a
// coordinator. An open-loop writer posts multi-metric MRLB bodies to the
// coordinator's POST /ingest/bin while a closed-loop querier asks through
// the coordinator, which pulls /snapshot from every node and merges at
// height 2.
const (
	clNodes        = 2
	clMetrics      = 4
	clPreload      = 300_000 // values per metric loaded during set-up: enough to fill every buffer, so query cost is flat through the run
	clPreloadBatch = 8192
	clWriteRate    = 100.0 // bodies per second
	clWriteBatch   = 32    // values per metric per body
	// clThink is the querier's pause between answers: a dashboard-like
	// client, so the coordinator's merges leave the 2-core host room for
	// the writer instead of saturating it.
	clThink = 20 * time.Millisecond
	// clQueryWindow is queries per CPU-cost window: about two seconds.
	clQueryWindow = 50
)

type clPlan struct {
	streams [][]float64
	bodies  int // live bodies; body i carries chunk i of every metric
}

func (b *bench) clPlan() *clPlan {
	p := &clPlan{bodies: int(clWriteRate * b.seconds)}
	rng := b.rng(3)
	for m := 0; m < clMetrics; m++ {
		p.streams = append(p.streams, permutation(rng, clPreload+p.bodies*clWriteBatch))
	}
	return p
}

// balancedNames picks metric names so each node owns the same number of
// metrics. Ownership hashes the node URLs, whose ports change every run;
// fixing the split keeps per-node load the same from run to run.
func balancedNames(nodes []string, n int) []string {
	per := make([]int, len(nodes))
	var names []string
	for i := 0; len(names) < n; i++ {
		name := fmt.Sprintf("cl.m%d", i)
		o := cluster.Owner(nodes, name)
		if per[o] < n/len(nodes) {
			per[o]++
			names = append(names, name)
		}
	}
	return names
}

type clTopology struct {
	nodes []*daemon
	coord *daemon
	names []string
	dirs  []string
}

func (b *bench) startCluster(ctx context.Context, rep int) (*clTopology, error) {
	epsNode, nNode, _ := cluster.NodeProvision(servedEpsilon, servedN, clNodes)
	t := &clTopology{}
	var urls []string
	for i := 0; i < clNodes; i++ {
		dir, err := b.dir(fmt.Sprintf("setup%d-node%d", rep, i))
		if err != nil {
			return nil, err
		}
		d, err := b.procs.newDaemon(fmt.Sprintf("%s-cl%d-node%d", b.pass, rep, i), false, nodeFlags(dir, epsNode, nNode)...)
		if err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, d)
		t.dirs = append(t.dirs, dir)
		urls = append(urls, d.base)
	}
	coord, err := b.procs.newDaemon(fmt.Sprintf("%s-cl%d-coord", b.pass, rep), false,
		"-cluster", "-peers", strings.Join(urls, ","), "-epsilon", fmt.Sprint(servedEpsilon))
	if err != nil {
		return nil, err
	}
	t.coord = coord
	t.names = balancedNames(urls, clMetrics)
	for _, d := range append(append([]*daemon(nil), t.nodes...), coord) {
		if err := b.procs.start(d); err != nil {
			return nil, err
		}
	}
	for _, d := range append(append([]*daemon(nil), t.nodes...), coord) {
		if err := waitHealthy(ctx, d, 30*time.Second); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (b *bench) runCluster(ctx context.Context) (*outcome, error) {
	o := &outcome{e2e: make(map[string]metricValue)}
	p := b.clPlan()
	preloaded := make([]int64, clMetrics)
	want := make([]int64, clMetrics)
	for m := range want {
		preloaded[m] = clPreload
		want[m] = int64(len(p.streams[m]))
	}
	qc := newHTTPClient()
	defer qc.CloseIdleConnections()

	var t *clTopology
	var setups []float64
	preloadCPU := &cpuMeter{}
	for rep := 0; rep < setupRepeats; rep++ {
		if t != nil {
			for _, d := range append(t.nodes, t.coord) {
				b.procs.kill(d)
			}
			qc.CloseIdleConnections()
		}
		t0 := time.Now()
		var err error
		if t, err = b.startCluster(ctx, rep); err != nil {
			return nil, err
		}
		all := append(append([]*daemon(nil), t.nodes...), t.coord)
		if err := preloadCPU.begin(all...); err != nil {
			return nil, err
		}
		pw := &binBody{sid: b.sessionID(200 + rep)}
		for off := 0; off < clPreload; off += clPreloadBatch {
			batches := make([]binBatch, clMetrics)
			for m := range batches {
				batches[m] = binBatch{metric: t.names[m], values: p.streams[m][off:min(off+clPreloadBatch, clPreload)]}
			}
			if _, err := post(qc, t.coord.base+"/ingest/bin", "application/octet-stream", pw.encode(batches)); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		if err := waitCounts(ctx, qc, t.coord.base, t.names, preloaded, 60*time.Second); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := preloadCPU.window(clPreload * clMetrics); err != nil {
			return nil, err
		}
	}
	o.set("setup_s", median(setups), "s")
	o.setIngestCPU(preloadCPU)
	o.walDirs = t.dirs
	var smp *sampler
	if b.tr != nil {
		var bases []string
		for _, n := range t.nodes {
			bases = append(bases, n.base)
		}
		smp = startSampler(bases, 100*time.Millisecond)
	}

	w := &httpWriter{c: newHTTPClient(), acked: make([]atomic.Int64, clMetrics)}
	defer w.c.CloseIdleConnections()
	lw := &binBody{sid: b.sessionID(300)}
	q := &querier{c: qc}
	all := append(append([]*daemon(nil), t.nodes...), t.coord)
	cpu, err := newCPUMeter(all...)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(all...)
	var asked int
	var cpuErr error
	liveRun(func() {
		w.run(b.tr, t.coord.base+"/ingest/bin", "application/octet-stream", clWriteRate, p.bodies, func(i int) ([]byte, []int) {
			batches := make([]binBatch, clMetrics)
			counts := make([]int, clMetrics)
			off := clPreload + i*clWriteBatch
			for m := range batches {
				batches[m] = binBatch{metric: t.names[m], values: p.streams[m][off : off+clWriteBatch]}
				counts[m] = clWriteBatch
			}
			return lw.encode(batches), counts
		})
	}, func(stop <-chan struct{}) {
		for ; !stopped(stop); asked++ {
			i := asked
			m := i % clMetrics
			minCount := clPreload + w.acked[m].Load()
			q.ask(b.tr, t.coord.base, t.names[m], m, phiSets[(i/clMetrics)%len(phiSets)], false, minCount, -1)
			if (i+1)%clQueryWindow == 0 && cpuErr == nil {
				cpuErr = cpu.window(clQueryWindow)
			}
			time.Sleep(clThink)
		}
	})
	if cpuErr == nil {
		cpuErr = cpu.finish(asked % clQueryWindow)
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
	o.attempted += int64(p.bodies)
	o.fail(w.errs, fmt.Sprint(w.lastErr))
	o.set("ingest_values_per_s", float64(w.values)/w.last.Sub(w.first).Seconds(), "1/s")
	o.setDist("ack_p50_ms", &w.lat, 50, "ms")
	o.setDist("ack_p99_ms", &w.lat, 99, "ms")
	o.setDist("query_p50_ms", &q.lat, 50, "ms")
	o.setDist("query_p99_ms", &q.lat, 99, "ms")
	o.setRate("queries_per_s", &q.lat)
	for _, n := range t.nodes {
		if ms, err := getMetricsz(qc, n.base); err == nil {
			o.cacheHits += ms.QueryCache.Hits
			o.cacheMisses += ms.QueryCache.Misses
		}
	}

	var finals []*answer
	for m, name := range t.names {
		if a := q.ask(b.tr, t.coord.base, name, m, finalPhis, false, want[m], want[m]); a != nil {
			finals = append(finals, a)
		}
	}
	peak := 0.0
	for _, d := range all {
		r, err := vmHWM(d)
		if err != nil {
			return nil, err
		}
		peak += r
	}
	o.set("peak_rss_mb", peak, "MiB")
	if err := o.setMemoryElements(qc, t.nodes...); err != nil {
		return nil, err
	}

	recov, replayed, err := b.crashRecover(ctx, t.nodes, t.coord, t.names, want, qc, o)
	if err != nil {
		return nil, err
	}
	o.set("recover_s", median(recov), "s")
	o.recoverS, o.replayed = median(recov), replayed
	for m, name := range t.names {
		if a := q.ask(b.tr, t.coord.base, name, m, finalPhis, false, want[m], want[m]); a != nil {
			finals = append(finals, a)
		}
	}
	o.attempted += int64(q.lat.n() + int(q.errs))
	o.fail(q.errs, fmt.Sprint(q.lastErr))
	o.checkAll(p.streams, q.answers, finals, cluster.Height(clNodes))
	return o, nil
}
