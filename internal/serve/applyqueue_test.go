package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// applyTestConfig is the shared base: barrier-only draining (no workers) so
// tests control exactly when queued batches apply.
func applyTestConfig() Config {
	return Config{Epsilon: 0.01, N: 1_000_000, Shards: 1, Windows: 3, PerWindow: 4096, ApplyWorkers: -1}
}

// enqueueDirect pushes one plain batch through the metric's apply queue the
// way the binary ingest path does (reserve, then enqueue), with its own copy
// of the values.
func enqueueDirect(t *testing.T, m *metric, vs []float64) {
	t.Helper()
	if err := m.q.reserve(false); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	m.q.enqueue(m, applyItem{vs: append([]float64(nil), vs...)})
}

// TestAsyncApplyBitIdenticalToSync proves the tentpole's order invariant at
// the registry level: a backlog of batches applied through the queue — as one
// coalesced multi-slice run AND as per-batch drains — produces a registry
// byte-identical (checkpoint encoding, windowed answers, counters) to
// synchronous Ingest of the same batches in the same order.
func TestAsyncApplyBitIdenticalToSync(t *testing.T) {
	rng := rand.New(rand.NewSource(1207))
	batches := make([][]float64, 32)
	for i := range batches {
		b := make([]float64, 1+rng.Intn(200))
		for j := range b {
			b[j] = rng.NormFloat64() * 100
		}
		batches[i] = b
	}

	newReg := func() *Registry {
		reg, err := NewRegistry(applyTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	syncReg, coalesced, single := newReg(), newReg(), newReg()
	defer syncReg.Close()
	defer coalesced.Close()
	defer single.Close()

	for _, b := range batches {
		if err := syncReg.Ingest("m", b); err != nil {
			t.Fatal(err)
		}
	}
	// Whole backlog queued, then one drain: applyRun coalesces every batch
	// into a single multi-slice AddBatches pass.
	mc, err := coalesced.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		enqueueDirect(t, mc, b)
	}
	coalesced.drainAll()
	// Drain after every enqueue: each batch applies alone.
	ms, err := single.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		enqueueDirect(t, ms, b)
		single.drainAll()
	}

	want, err := syncReg.encodeCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	for label, reg := range map[string]*Registry{"coalesced": coalesced, "per-batch": single} {
		got, err := reg.encodeCheckpoint(0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: checkpoint bytes differ from synchronous ingest (async apply reordered or lost a batch)", label)
		}
		phis := []float64{0.1, 0.5, 0.9}
		for _, windowed := range []bool{false, true} {
			wantQ, err := syncReg.Quantiles("m", phis, windowed)
			if err != nil {
				t.Fatal(err)
			}
			gotQ, err := reg.Quantiles("m", phis, windowed)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(wantQ, gotQ) {
				t.Errorf("%s windowed=%v: query %+v, sync ingest served %+v", label, windowed, gotQ, wantQ)
			}
		}
		wantSt, gotSt := syncReg.Status()[0], reg.Status()[0]
		if wantSt.IngestedValues != gotSt.IngestedValues || wantSt.IngestBatches != gotSt.IngestBatches {
			t.Errorf("%s: counted %d values / %d batches, sync %d / %d",
				label, gotSt.IngestedValues, gotSt.IngestBatches, wantSt.IngestedValues, wantSt.IngestBatches)
		}
	}
	st := coalesced.ApplyStatus()
	if st.CoalescedBatches != int64(len(batches)) {
		t.Errorf("coalesced run applied %d batches as coalesced, want %d", st.CoalescedBatches, len(batches))
	}
	if single.ApplyStatus().CoalescedBatches != 0 {
		t.Errorf("per-batch drains coalesced %d batches, want 0", single.ApplyStatus().CoalescedBatches)
	}
}

// TestApplyCoalescedWeightedBitIdentical is the coalescing differential for
// weighted metrics: an interleaved mix of weighted and unweighted batches
// into a weighted-backend metric at Shards=1, queued with no apply workers so
// one query drains the whole backlog as a single coalesced run, must leave a
// byte-identical checkpoint and serve identical /quantile answers (all-time
// and windowed) to the same batches applied one at a time.
func TestApplyCoalescedWeightedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2113))
	type batch struct{ vs, ws []float64 }
	batches := make([]batch, 48)
	for i := range batches {
		b := batch{vs: make([]float64, 1+rng.Intn(300))}
		for j := range b.vs {
			b.vs[j] = rng.NormFloat64() * 100
		}
		if rng.Intn(2) == 0 {
			b.ws = make([]float64, len(b.vs))
			for j := range b.ws {
				b.ws[j] = 0.25 + 4*rng.Float64()
			}
		}
		batches[i] = b
	}

	newSrv := func() (*Registry, *Server) {
		reg, err := NewRegistry(applyTestConfig()) // Shards: 1, ApplyWorkers: -1
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.EnsureBackend("w", "weighted"); err != nil {
			t.Fatal(err)
		}
		return reg, mustNew(t, reg, Options{})
	}
	queuedReg, queued := newSrv()
	singleReg, single := newSrv()
	defer queuedReg.Close()
	defer singleReg.Close()
	for _, b := range batches {
		if err := queued.ingest("w", b.vs, b.ws, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := single.ingest("w", b.vs, b.ws, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
		singleReg.drainAll()
	}

	query := func(srv *Server, windowed bool) string {
		rec := httptest.NewRecorder()
		url := fmt.Sprintf("/quantile?metric=w&phi=0,0.1,0.25,0.5,0.75,0.9,1&window=%v", windowed)
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	for _, windowed := range []bool{false, true} {
		// The first query drains the queued server's whole backlog.
		if got, want := query(queued, windowed), query(single, windowed); got != want {
			t.Errorf("windowed=%v: coalesced apply served %s, one-at-a-time %s", windowed, got, want)
		}
	}
	if st := queuedReg.ApplyStatus(); st.CoalescedBatches != int64(len(batches)) || st.AppliedBatches != int64(len(batches)) {
		t.Fatalf("queued server applied %d batches, %d coalesced; want all %d in one run",
			st.AppliedBatches, st.CoalescedBatches, len(batches))
	}
	if st := singleReg.ApplyStatus(); st.CoalescedBatches != 0 {
		t.Fatalf("one-at-a-time server coalesced %d batches", st.CoalescedBatches)
	}
	want, err := singleReg.encodeCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := queuedReg.encodeCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("checkpoint bytes differ between coalesced and one-at-a-time apply")
	}
	wantSt, gotSt := singleReg.Status()[0], queuedReg.Status()[0]
	if wantSt.IngestedValues != gotSt.IngestedValues || wantSt.IngestBatches != gotSt.IngestBatches ||
		wantSt.Window.Count != gotSt.Window.Count {
		t.Errorf("coalesced counters %d values / %d batches / %d windowed, one-at-a-time %d / %d / %d",
			gotSt.IngestedValues, gotSt.IngestBatches, gotSt.Window.Count,
			wantSt.IngestedValues, wantSt.IngestBatches, wantSt.Window.Count)
	}
}

// TestApplyBackpressureShed covers the shed policy: a full queue fails the
// reservation with ErrApplyBacklog — mapped to 429, so a client retries, on
// JSON ingest as on binary — and nothing about the queued backlog is
// disturbed.
func TestApplyBackpressureShed(t *testing.T) {
	cfg := applyTestConfig()
	cfg.ApplyQueueDepth = 2
	cfg.ApplyShed = true
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	enqueueDirect(t, m, []float64{1})
	enqueueDirect(t, m, []float64{2})
	if err := m.q.reserve(false); !errors.Is(err, ErrApplyBacklog) {
		t.Fatalf("reserve on a full queue: %v, want ErrApplyBacklog", err)
	}
	if got := statusFor(ErrApplyBacklog); got != http.StatusTooManyRequests {
		t.Fatalf("statusFor(ErrApplyBacklog) = %d, want 429", got)
	}
	rec := httptest.NewRecorder()
	mustNew(t, reg, Options{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(ingestBody("m", []float64{3}))))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" || !strings.Contains(rec.Body.String(), ErrApplyBacklog.Error()) {
		t.Fatalf("JSON ingest into a full queue: %d %q (Retry-After %q), want 429 ErrApplyBacklog",
			rec.Code, rec.Body.String(), rec.Header().Get("Retry-After"))
	}
	// Replay must never shed: forceBlock bypasses the policy (there is space
	// again after a drain).
	st := reg.ApplyStatus()
	if st.Policy != "shed" || st.ShedBatches != 2 || st.PendingBatches != 2 {
		t.Fatalf("apply status %+v, want policy=shed shed=2 pending=2", st)
	}
	reg.drainAll()
	if st := reg.ApplyStatus(); st.PendingBatches != 0 || st.AppliedBatches != 2 {
		t.Fatalf("after drain: %+v, want pending=0 applied=2", st)
	}
	res, err := reg.Quantiles("m", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Fatalf("count %d after shed, want 2 (the shed batch must not have landed)", res.Count)
	}
}

// TestApplyBackpressureBlocks covers the default policy: a reservation
// against a full queue waits for a drainer to free space instead of failing,
// and completes once one does.
func TestApplyBackpressureBlocks(t *testing.T) {
	cfg := applyTestConfig()
	cfg.ApplyQueueDepth = 1
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	enqueueDirect(t, m, []float64{1})

	done := make(chan error, 1)
	go func() {
		if err := m.q.reserve(false); err != nil {
			done <- err
			return
		}
		m.q.enqueue(m, applyItem{vs: []float64{2}})
		done <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for reg.pool.blockedEnqueues.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reservation against a full queue never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("blocked reservation returned early: %v", err)
	default:
	}
	reg.drainAll() // frees the slot; the blocked reservation proceeds
	if err := <-done; err != nil {
		t.Fatalf("reservation after drain: %v", err)
	}
	reg.drainAll()
	if st := reg.ApplyStatus(); st.AppliedBatches != 2 || st.BlockedEnqueues != 1 {
		t.Fatalf("apply status %+v, want applied=2 blocked=1", st)
	}
}

// TestRegistryCreateVsIngestStress hammers the lock-free read path: metric
// creation (copy-on-write snapshot swap) races sync ingest, async enqueues,
// worker drains, queries, and listings. Run under -race (make race), the
// point is the detector; the closing accounting check catches lost updates.
func TestRegistryCreateVsIngestStress(t *testing.T) {
	cfg := Config{Epsilon: 0.02, N: 100_000, Shards: 1, ApplyWorkers: 2}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const goroutines, iters, names = 8, 300, 23
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 104729))
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("stress-%d", rng.Intn(names))
				switch i % 3 {
				case 0:
					if err := reg.Ingest(name, []float64{1, 2, 3}); err != nil {
						t.Error(err)
						return
					}
					total.Add(3)
				case 1:
					m, err := reg.getOrCreate(name)
					if err != nil {
						t.Error(err)
						return
					}
					enqueueDirect(t, m, []float64{4, 5, 6})
					total.Add(3)
				default:
					if _, err := reg.Quantiles(name, []float64{0.5}, false); err != nil && !errors.Is(err, ErrUnknownMetric) {
						t.Error(err)
						return
					}
					_ = reg.Names()
				}
			}
		}(g)
	}
	wg.Wait()
	reg.drainAll()
	var ingested int64
	for _, st := range reg.Status() {
		ingested += st.IngestedValues
	}
	if ingested != total.Load() {
		t.Fatalf("registry counted %d ingested values, writers sent %d", ingested, total.Load())
	}
	if st := reg.ApplyStatus(); st.PendingBatches != 0 {
		t.Fatalf("pending %d batches after drainAll", st.PendingBatches)
	}
}

// TestApplyHandoffZeroAlloc is the satellite allocation gate: the binary
// ingest handoff — reserve, zero-copy enqueue of a frame-buffer value view,
// drain through applyPlain into the sharded sketch — allocates nothing per
// batch at steady state. This is what "the decoded batch is never copied
// between the wire and the sketch" means, enforced.
func TestApplyHandoffZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	cfg := applyTestConfig()
	cfg.Windows = 0 // the ring is exercised elsewhere; this gate is the sketch handoff
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s, err := New(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}

	const batch = 512
	buf := getFrameBuf(batch * 8)
	defer buf.release()
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < batch; i++ {
		binary.LittleEndian.PutUint64(buf.b[8*i:], math.Float64bits(rng.Float64()))
	}
	vs := f64view(buf.b, batch, nil)
	if !viewInto(buf.b, vs) {
		t.Skip("zero-copy value view unavailable on this host (big-endian); the handoff copies by design")
	}

	step := func() {
		if err := m.q.reserve(false); err != nil {
			t.Fatal(err)
		}
		s.enqueueApply(m, vs, nil, buf)
		m.q.drain(m)
	}
	// Warm the sketch through buffer fills and collapses, and the queue/pool
	// through their first-growth appends.
	for i := 0; i < 64; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(1024, step)
	if allocs != 0 {
		t.Fatalf("decode→queue→AddBatch handoff allocated %v per batch at steady state, want 0", allocs)
	}
	if got := int64(buf.refs.Load()); got != 1 {
		t.Fatalf("frame buffer refcount %d after drains, want 1 (leaked or double-released references)", got)
	}
}

// TestEnqueueApplyCopiesScratchViews pins the safety valve: a value slice
// that does NOT view into the frame buffer (the big-endian / misaligned
// scratch-decode fallback) must be copied at enqueue, because the scratch is
// reused by the next frame.
func TestEnqueueApplyCopiesScratchViews(t *testing.T) {
	reg, err := NewRegistry(applyTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s, err := New(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.getOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	buf := getFrameBuf(64)
	defer buf.release()
	scratch := []float64{42, 43, 44} // stands in for the decode scratch
	if err := m.q.reserve(false); err != nil {
		t.Fatal(err)
	}
	s.enqueueApply(m, scratch, nil, buf)
	if got := int64(buf.refs.Load()); got != 1 {
		t.Fatalf("buffer refcount %d after a scratch enqueue, want 1 (the queue must not retain a buffer the values do not view into)", got)
	}
	scratch[0], scratch[1], scratch[2] = -1, -1, -1 // the next frame overwrites the scratch
	m.q.drain(m)
	res, err := reg.Quantiles("m", []float64{0, 0.5, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 42 || res.Values[2] != 44 {
		t.Fatalf("served %v: the enqueued batch aliased the reused scratch instead of copying it", res.Values)
	}
}
