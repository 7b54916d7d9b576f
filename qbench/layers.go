package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mrl/internal/cluster"
	"mrl/internal/core"
	"mrl/internal/faultfs"
	"mrl/internal/params"
	"mrl/internal/serve"
	"mrl/internal/wal"
	"mrl/quantile"
)

// The traced run's second half: the same generated inputs replayed through
// each layer's public functions on in-process instances, every call timed
// by the benchmark itself. The layers are not instrumented.

// perLayerMetrics lists every metric a traced run prints: the layers' own,
// then the tracing overhead on each end-to-end metric.
var perLayerMetrics = append(layerMetrics, overheadMetrics()...)

var layerMetrics = []string{
	"load.lateness_p99_ms",
	"serve.bin_decode_us", "serve.registry_ingest_ns_per_value", "serve.ingest_http_us",
	"serve.apply_busy_ratio", "serve.apply_coalesced_ratio", "serve.apply_pending_max",
	"serve.apply_blocked_enqueues", "serve.apply_shed_batches",
	"serve.query_us.mrl", "serve.query_us.kll", "serve.query_us.weighted", "serve.query_http_us",
	"serve.query_cache_hit_ratio", "serve.query_cache_hits", "serve.query_cache_misses",
	"serve.snapshot_encode_us", "serve.snapshot_bytes", "serve.recovery_values_per_s",
	"wal.fsyncs_per_batch", "wal.fsync_p50_ms", "wal.fsync_p99_ms", "wal.bytes_per_value",
	"wal.replay_values_per_s",
	"quantile.add_batch_ns_per_value", "quantile.query_us.mrl", "quantile.query_us.kll",
	"quantile.query_us.weighted", "quantile.combine_snapshots_us", "quantile.memory_elements",
	"core.add_batch_ns_per_value", "core.collapses_per_mvalue",
	"kll.absorb_us", "kll.compactions_per_mvalue",
	"cluster.query_us", "cluster.pull_us", "cluster.forward_bin_us", "cluster.owner_skew",
	"cluster.partial_ratio",
}

// overheadMetrics names the traced pass's end-to-end numbers minus the
// untraced pass's, for every end-to-end metric the command measures.
func overheadMetrics() []string {
	var out []string
	for _, name := range allE2E() {
		out = append(out, "trace.overhead."+name)
	}
	return out
}

// Replay sizes: enough calls for a stable median, small enough that the
// whole replay stays within a few seconds on a 2-core host.
const (
	replayMaxValues = 1_000_000 // values fed into each in-process summary
	replayCalls     = 25        // timed calls per median
	replayHTTPPosts = 200       // POST /ingest requests (one fsync each)
	replayWALValues = 1_000_000 // values pushed through the WAL carrier
)

// replayInput is a workload's generated inputs in the shape the layers
// take them.
type replayInput struct {
	metrics  []string
	backends []string // per metric
	streams  [][]float64
	batch    int    // values per batch on the workload's ingest carrier
	carrier  string // "tcp", "json" or "bin-http"
	// bodyBatches is how many batches one MRLB body carries.
	bodyBatches int
}

func (b *bench) replayInput() replayInput {
	switch b.workload {
	case "ingest-bin":
		p := b.ibPlan()
		return replayInput{metrics: p.metrics, backends: allMRL(ibMetrics), streams: p.streams, batch: ibBatch, carrier: "tcp", bodyBatches: ibMetrics * 2}
	case "query-live":
		p := b.qlPlan()
		return replayInput{metrics: qlMetrics, backends: qlBackends, streams: p.streams, batch: qlWriteBatch, carrier: "json", bodyBatches: len(qlMetrics)}
	default:
		p := b.clPlan()
		names := make([]string, clMetrics)
		for i := range names {
			names[i] = fmt.Sprintf("cl.m%d", i)
		}
		return replayInput{metrics: names, backends: allMRL(clMetrics), streams: p.streams, batch: clWriteBatch, carrier: "bin-http", bodyBatches: clMetrics}
	}
}

func allMRL(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "mrl"
	}
	return out
}

// values returns up to n of the workload's values, metric streams
// concatenated in order.
func (in replayInput) values(n int) []float64 {
	out := make([]float64, 0, n)
	for _, s := range in.streams {
		out = append(out, s[:min(len(s), n-len(out))]...)
		if len(out) == n {
			break
		}
	}
	return out
}

// batches cuts vs into the workload's batch size.
func (in replayInput) batches(vs []float64) [][]float64 {
	var out [][]float64
	for off := 0; off < len(vs); off += in.batch {
		out = append(out, vs[off:min(off+in.batch, len(vs))])
	}
	return out
}

// body is the i-th MRLB body of the workload's shape: bodyBatches batches,
// round-robin over the metrics.
func (in replayInput) body(w *binBody, i int) []byte {
	batches := make([]binBatch, in.bodyBatches)
	for j := range batches {
		m := j % len(in.metrics)
		s := in.streams[m]
		off := (i*in.bodyBatches + j) / len(in.metrics) * in.batch % (len(s) - in.batch)
		batches[j] = binBatch{metric: in.metrics[m], values: s[off : off+in.batch]}
	}
	return w.encode(batches)
}

// timeCalls runs f n times and returns the median duration in µs.
func timeCalls(n int, f func(i int) error) (float64, error) {
	var d dist
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		d.addMicros(time.Since(t0))
	}
	return d.at(50), nil
}

// countingFS is the real filesystem with every file write and fsync
// counted and every fsync timed.
type countingFS struct {
	faultfs.OS
	bytes atomic.Int64
	mu    sync.Mutex
	syncs dist // ms per file fsync
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (c *countingFS) OpenFile(path string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.OS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.mu.Lock()
	f.fs.syncs.addDur(time.Since(t0))
	f.fs.mu.Unlock()
	return err
}

func servedConfig(backend string) serve.Config {
	return serve.Config{Epsilon: servedEpsilon, N: servedN, Windows: 5, PerWindow: 1_000_000, Backend: backend}
}

// layerReplay measures every per-layer metric for the workload. traced is
// the traced end-to-end pass, whose /metricsz samples, recovery and WAL
// directories feed the serve and wal rows.
func (b *bench) layerReplay(ctx context.Context, traced *outcome) (map[string]metricValue, error) {
	out := make(map[string]metricValue)
	set := func(name string, v float64, unit string) { out[name] = metricValue{value: v, unit: unit} }
	in := b.replayInput()
	vals := in.values(replayMaxValues)
	phis := make([][]float64, len(phiSets))
	for i, s := range phiSets {
		phis[i] = parsePhiList(s)
	}

	_, late := traced.lateness.tail(99)
	out["load.lateness_p99_ms"] = metricValue{value: late, unit: "ms", n: traced.lateness.n(), pct: 99}

	// core: one shard at the served per-shard geometry.
	shards := runtime.GOMAXPROCS(0)
	nShard := (int64(servedN) + int64(shards) - 1) / int64(shards)
	epsShard := (servedEpsilon*servedN - float64(shards-1)) / (float64(shards) * float64(nShard))
	plan, err := params.Optimize(core.PolicyNew, epsShard, nShard)
	if err != nil {
		return nil, err
	}
	sk, err := plan.NewSketch()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, bt := range in.batches(vals) {
		if err := sk.AddBatch(bt); err != nil {
			return nil, err
		}
	}
	set("core.add_batch_ns_per_value", float64(time.Since(t0).Nanoseconds())/float64(len(vals)), "ns")
	set("core.collapses_per_mvalue", perMillion(float64(sk.Stats().Collapses), float64(len(vals))).value(), "count")

	// quantile: the served Concurrent, one per backend.
	for _, backend := range []string{"mrl", "kll", "weighted"} {
		c, err := quantile.NewConcurrent(quantile.ConcurrentConfig{Epsilon: servedEpsilon, N: servedN, Backend: quantile.Backend(backend), Seed: b.seed})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, bt := range in.batches(vals) {
			if err := c.AddBatch(bt); err != nil {
				return nil, err
			}
		}
		if backend == "mrl" {
			set("quantile.add_batch_ns_per_value", float64(time.Since(t0).Nanoseconds())/float64(len(vals)), "ns")
		}
		us, err := timeCalls(replayCalls, func(i int) error {
			_, _, err := c.QuantilesWithBound(phis[i%len(phis)])
			return err
		})
		if err != nil {
			return nil, err
		}
		set("quantile.query_us."+backend, us, "us")
	}
	// Memory held by the workload's own metrics, each fed its stream.
	var mem int
	for m := range in.metrics {
		c, err := quantile.NewConcurrent(quantile.ConcurrentConfig{Epsilon: servedEpsilon, N: servedN, Backend: quantile.Backend(in.backends[m]), Seed: b.seed})
		if err != nil {
			return nil, err
		}
		s := in.streams[m][:min(len(in.streams[m]), replayMaxValues/len(in.metrics))]
		for _, bt := range in.batches(s) {
			if err := c.AddBatch(bt); err != nil {
				return nil, err
			}
		}
		mem += c.MemoryElements()
	}
	set("quantile.memory_elements", float64(mem), "count")

	// Two nodes' worth of snapshots merged through §4.9, as the coordinator does.
	epsNode, nNode, _ := cluster.NodeProvision(servedEpsilon, servedN, clNodes)
	var snaps []quantile.EstimatorSnapshot
	half := len(vals) / 2
	for i := 0; i < clNodes; i++ {
		c, err := quantile.NewConcurrent(quantile.ConcurrentConfig{Epsilon: epsNode, N: nNode})
		if err != nil {
			return nil, err
		}
		for _, bt := range in.batches(vals[i*half : (i+1)*half]) {
			if err := c.AddBatch(bt); err != nil {
				return nil, err
			}
		}
		s, err := c.EstimatorSnapshots()
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s...)
	}
	us, err := timeCalls(replayCalls, func(i int) error {
		_, _, _, err := quantile.CombineEstimatorSnapshots(snaps, phis[i%len(phis)])
		return err
	})
	if err != nil {
		return nil, err
	}
	set("quantile.combine_snapshots_us", us, "us")

	// kll: the clone-and-Absorb every uncached KLL query runs per shard.
	kshards := make([]*quantile.KLL, shards)
	for i := range kshards {
		if kshards[i], err = quantile.NewKLL(quantile.Config{Epsilon: servedEpsilon, Seed: b.seed + int64(i)}); err != nil {
			return nil, err
		}
	}
	for i, bt := range in.batches(vals) {
		if err := kshards[i%shards].AddBatch(bt); err != nil {
			return nil, err
		}
	}
	var compactions int64
	for _, k := range kshards {
		compactions += k.EstimatorStats().Compactions
	}
	set("kll.compactions_per_mvalue", perMillion(float64(compactions), float64(len(vals))).value(), "count")
	blob, err := kshards[0].MarshalBinary()
	if err != nil {
		return nil, err
	}
	var absorb dist
	for i := 0; i < replayCalls; i++ {
		clone, err := quantile.NewKLL(quantile.Config{Epsilon: servedEpsilon})
		if err != nil {
			return nil, err
		}
		if err := clone.UnmarshalBinary(blob); err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, k := range kshards[1:] {
			if err := clone.Absorb(k); err != nil {
				return nil, err
			}
		}
		absorb.addMicros(time.Since(t0))
	}
	set("kll.absorb_us", absorb.at(50), "us")

	if err := b.replayServe(ctx, in, vals, phis, set); err != nil {
		return nil, err
	}
	if err := b.replayWAL(in, set); err != nil {
		return nil, err
	}
	if err := b.replayCluster(ctx, in, phis, traced, set); err != nil {
		return nil, err
	}

	// Rows read off the traced end-to-end pass.
	applyRows(traced.samples, set)
	hits, misses := float64(traced.cacheHits), float64(traced.cacheMisses)
	set("serve.query_cache_hit_ratio", ratio{num: hits, den: hits + misses}.value(), "ratio")
	set("serve.query_cache_hits", hits, "count")
	set("serve.query_cache_misses", misses, "count")
	set("serve.recovery_values_per_s", ratio{num: float64(traced.replayed), den: traced.recoverS}.value(), "1/s")
	var replayed int64
	t0 = time.Now()
	for _, dir := range traced.walDirs {
		if _, err := wal.Replay(faultfs.OS{}, dir, 0, func(r wal.Record) error {
			replayed += int64(len(r.Values))
			return nil
		}); err != nil {
			return nil, err
		}
	}
	set("wal.replay_values_per_s", float64(replayed)/time.Since(t0).Seconds(), "1/s")
	return out, nil
}

// applyRows derives the apply-pool rows from /metricsz samples of the
// storage daemons, summed over daemons.
func applyRows(samples map[string][]sample, set func(string, float64, string)) {
	var busy, wall, coalesced, applied, blocked, shed float64
	var pendingMax uint64
	for _, ss := range samples {
		if len(ss) < 2 {
			continue
		}
		first, last := ss[0], ss[len(ss)-1]
		r := busyRatio(first.m.Apply.BusySeconds, last.m.Apply.BusySeconds, last.at.Sub(first.at).Seconds(), last.m.Apply.Workers)
		busy += r.num
		wall += r.den
		coalesced += float64(last.m.Apply.CoalescedBatches - first.m.Apply.CoalescedBatches)
		applied += float64(last.m.Apply.AppliedBatches - first.m.Apply.AppliedBatches)
		blocked += float64(last.m.Apply.BlockedEnqueues)
		shed += float64(last.m.Apply.ShedBatches)
		for _, s := range ss {
			pendingMax = max(pendingMax, s.m.Apply.PendingBatches)
		}
	}
	set("serve.apply_busy_ratio", ratio{num: busy, den: wall}.value(), "ratio")
	set("serve.apply_coalesced_ratio", ratio{num: coalesced, den: applied}.value(), "ratio")
	set("serve.apply_pending_max", float64(pendingMax), "count")
	set("serve.apply_blocked_enqueues", blocked, "count")
	set("serve.apply_shed_batches", shed, "count")
}

// replayServe times the Registry and the HTTP handler in process.
func (b *bench) replayServe(ctx context.Context, in replayInput, vals []float64, phis [][]float64, set func(string, float64, string)) error {
	w := &binBody{sid: b.sessionID(400)}
	body := in.body(w, 0)
	us, err := timeCalls(replayCalls, func(int) error {
		_, err := serve.DecodeBinBody(body)
		return err
	})
	if err != nil {
		return err
	}
	set("serve.bin_decode_us", us, "us")

	reg, err := serve.NewRegistry(servedConfig("mrl"))
	if err != nil {
		return err
	}
	defer reg.Close()
	t0 := time.Now()
	for i, bt := range in.batches(vals) {
		if err := reg.Ingest(in.metrics[i%len(in.metrics)], bt); err != nil {
			return err
		}
	}
	set("serve.registry_ingest_ns_per_value", float64(time.Since(t0).Nanoseconds())/float64(len(vals)), "ns")
	for _, backend := range []string{"mrl", "kll", "weighted"} {
		name := "replay." + backend
		if err := reg.EnsureBackend(name, backend); err != nil {
			return err
		}
		for _, bt := range in.batches(vals) {
			if err := reg.Ingest(name, bt); err != nil {
				return err
			}
		}
		us, err := timeCalls(replayCalls, func(i int) error {
			_, err := reg.Quantiles(name, phis[i%len(phis)], false)
			return err
		})
		if err != nil {
			return err
		}
		set("serve.query_us."+backend, us, "us")
	}
	us, err = timeCalls(replayCalls, func(int) error {
		parts, err := reg.SnapshotParts("replay.mrl")
		if err != nil {
			return err
		}
		enc, err := serve.EncodeSnapshot(parts)
		set("serve.snapshot_bytes", float64(len(enc)), "bytes")
		return err
	})
	if err != nil {
		return err
	}
	set("serve.snapshot_encode_us", us, "us")

	// POST /ingest and GET /quantile through Server.Handler, WAL on.
	dir, err := b.dir("replay-http")
	if err != nil {
		return err
	}
	hreg, err := serve.NewRegistry(servedConfig("mrl"))
	if err != nil {
		return err
	}
	srv, err := serve.New(hreg, serve.Options{WALDir: dir, WALSync: wal.SyncEveryBatch})
	if err != nil {
		hreg.Close()
		return err
	}
	defer shutdown(srv)
	h := srv.Handler()
	bts := in.batches(vals)
	var ingest dist
	for i := 0; i < replayHTTPPosts; i++ {
		m := i % len(in.metrics)
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(jsonIngestBody(in.metrics[m], bts[i%len(bts)])))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		ingest.addMicros(time.Since(t0))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /ingest: %d %s", rec.Code, rec.Body.String())
		}
	}
	set("serve.ingest_http_us", ingest.at(50), "us")
	us, err = timeCalls(replayCalls*4, func(i int) error {
		u := fmt.Sprintf("/quantile?metric=%s&phi=%s&window=%v", in.metrics[i%len(in.metrics)], phiSets[i%len(phiSets)], i%2 == 1)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: %d %s", u, rec.Code, rec.Body.String())
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("serve.query_http_us", us, "us")
	return nil
}

func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// replayWAL drives the workload's ingest carrier into an in-process
// server whose WAL writes through a counting filesystem.
func (b *bench) replayWAL(in replayInput, set func(string, float64, string)) error {
	dir, err := b.dir("replay-wal")
	if err != nil {
		return err
	}
	cfs := &countingFS{}
	reg, err := serve.NewRegistry(servedConfig("mrl"))
	if err != nil {
		return err
	}
	srv, err := serve.New(reg, serve.Options{WALDir: dir, WALSync: wal.SyncEveryBatch, FS: cfs})
	if err != nil {
		reg.Close()
		return err
	}
	defer shutdown(srv)
	h := srv.Handler()
	vals := in.values(replayWALValues)
	bts := in.batches(vals)
	var batches, values int64
	switch in.carrier {
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() { _ = srv.ServeBinary(ln) }()
		var wg sync.WaitGroup
		errs := make([]error, ibConns)
		for c := 0; c < ibConns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				bc, err := dialBin(ln.Addr().String(), b.sessionID(500+c), in.metrics, binWindow)
				if err != nil {
					errs[c] = err
					return
				}
				for j := c; j < len(bts); j += ibConns {
					if err := bc.send(uint32(j%len(in.metrics)+1), bts[j], time.Now(), 0); err != nil {
						errs[c] = err
						break
					}
				}
				if err := bc.finish(); err != nil && errs[c] == nil {
					errs[c] = err
				}
				if bc.errs > 0 && errs[c] == nil {
					errs[c] = bc.lastErr
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("replay binary ingest: %w", err)
			}
		}
		batches, values = int64(len(bts)), int64(len(vals))
	case "json":
		for i := 0; i < replayHTTPPosts; i++ {
			bt := bts[i%len(bts)]
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(jsonIngestBody(in.metrics[i%len(in.metrics)], bt))))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("POST /ingest: %d %s", rec.Code, rec.Body.String())
			}
			batches++
			values += int64(len(bt))
		}
	default: // bin-http: one node's share of the coordinator's bodies
		w := &binBody{sid: b.sessionID(600)}
		for i := 0; i < replayHTTPPosts; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest/bin", bytes.NewReader(in.body(w, i))))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("POST /ingest/bin: %d %s", rec.Code, rec.Body.String())
			}
			batches += int64(in.bodyBatches)
			values += int64(in.bodyBatches * in.batch)
		}
	}
	cfs.mu.Lock()
	defer cfs.mu.Unlock()
	set("wal.fsyncs_per_batch", ratio{num: float64(cfs.syncs.n()), den: float64(batches)}.value(), "ratio")
	set("wal.fsync_p50_ms", cfs.syncs.at(50), "ms")
	_, p99 := cfs.syncs.tail(99)
	set("wal.fsync_p99_ms", p99, "ms")
	set("wal.bytes_per_value", ratio{num: float64(cfs.bytes.Load()), den: float64(values)}.value(), "bytes")
	return nil
}

// replayCluster runs a coordinator over two in-process nodes. Node URLs
// are fixed names resolved by a custom dialer, so metric ownership — and
// the owner skew — depends only on the metric names.
func (b *bench) replayCluster(ctx context.Context, in replayInput, phis [][]float64, traced *outcome, set func(string, float64, string)) error {
	epsNode, nNode, _ := cluster.NodeProvision(servedEpsilon, servedN, clNodes)
	addrs := map[string]string{}
	var urls []string
	for i := 0; i < clNodes; i++ {
		dir, err := b.dir(fmt.Sprintf("replay-node%d", i))
		if err != nil {
			return err
		}
		reg, err := serve.NewRegistry(serve.Config{Epsilon: epsNode, N: nNode, Windows: 5, PerWindow: 1_000_000})
		if err != nil {
			return err
		}
		srv, err := serve.New(reg, serve.Options{WALDir: dir, WALSync: wal.SyncEveryBatch})
		if err != nil {
			reg.Close()
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown(srv)
			return err
		}
		go func() { _ = srv.Serve(ln) }()
		defer shutdown(srv)
		host := fmt.Sprintf("node-%d", i)
		addrs[host+":80"] = ln.Addr().String()
		urls = append(urls, "http://"+host)
	}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, addrs[addr])
		},
	}}
	defer client.CloseIdleConnections()
	coord, err := cluster.New(cluster.Config{Nodes: urls, Epsilon: servedEpsilon, Client: client})
	if err != nil {
		return err
	}

	w := &binBody{sid: b.sessionID(700)}
	us, err := timeCalls(replayCalls*4, func(i int) error {
		_, err := coord.ForwardBin(ctx, in.body(w, i))
		return err
	})
	if err != nil {
		return err
	}
	set("cluster.forward_bin_us", us, "us")

	partial, answers := traced.partial, traced.clusterAns
	us, err = timeCalls(replayCalls, func(i int) error {
		res, err := coord.Query(ctx, in.metrics[i%len(in.metrics)], phis[i%len(phis)])
		answers++
		if res.Partial {
			partial++
		}
		return err
	})
	if err != nil {
		return err
	}
	set("cluster.query_us", us, "us")
	set("cluster.partial_ratio", ratio{num: float64(partial), den: float64(answers)}.value(), "ratio")

	us, err = timeCalls(replayCalls, func(i int) error {
		node := urls[i%len(urls)]
		resp, err := client.Get(node + "/snapshot?metric=" + in.metrics[i%len(in.metrics)])
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("GET /snapshot: %s", resp.Status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("cluster.pull_us", us, "us")

	// Skew: values owned by the busiest node over the mean per node.
	owned := make([]float64, len(urls))
	var total float64
	for m, name := range in.metrics {
		owned[cluster.Owner(urls, name)] += float64(len(in.streams[m]))
		total += float64(len(in.streams[m]))
	}
	busiest := 0.0
	for _, v := range owned {
		busiest = max(busiest, v)
	}
	set("cluster.owner_skew", ratio{num: busiest, den: total / float64(len(urls))}.value(), "ratio")
	return nil
}
