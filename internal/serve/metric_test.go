package serve

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mrl/internal/faultfs"
	"mrl/internal/wal"
	"mrl/quantile"
)

// TestMetricMatchesStandaloneEstimator locks down the one-estimator metric:
// the same batches reaching a metric through synchronous Ingest, through one
// coalesced apply-queue drain and through WAL replay at recovery must leave
// the byte-identical estimator a standalone one planned at (Epsilon/2, N,
// metricSeed) reaches from them, and serve its answers and bound — on every
// backend.
func TestMetricMatchesStandaloneEstimator(t *testing.T) {
	cfg := Config{Epsilon: 0.01, N: 200_000, ApplyWorkers: -1}
	rng := rand.New(rand.NewSource(4099))
	batches := make([][]float64, 40)
	for i := range batches {
		batches[i] = make([]float64, 1+rng.Intn(3000))
		for j := range batches[i] {
			batches[i][j] = rng.NormFloat64() * 100
		}
	}
	phis := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1}

	for _, backend := range []string{"mrl", "kll", "weighted"} {
		t.Run(backend, func(t *testing.T) {
			name := "lat." + backend
			want, err := quantile.NewEstimator(quantile.Backend(backend), quantile.Config{
				Epsilon: cfg.Epsilon / 2, N: cfg.N, Seed: metricSeed(name),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, vs := range batches {
				if err := want.AddBatch(vs); err != nil {
					t.Fatal(err)
				}
			}
			wantBlob, err := want.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			// A metric answers through the package's one combine rule, so the
			// standalone estimator is asked the same way, as the only part.
			wantValues, wantBound, _, err := quantile.CombineParts(quantile.Backend(backend),
				func(visit func(quantile.Estimator) error) error { return visit(want) }, phis)
			if err != nil {
				t.Fatal(err)
			}
			if b, _ := want.ErrorBound(); b != wantBound {
				t.Fatalf("one-part combine bound %v, the estimator's own %v", wantBound, b)
			}

			newReg := func() *Registry {
				reg, err := NewRegistry(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(reg.Close)
				return reg
			}
			ingested := newReg()
			if err := ingested.EnsureBackend(name, backend); err != nil {
				t.Fatal(err)
			}
			for _, vs := range batches {
				if err := ingested.Ingest(name, vs); err != nil {
					t.Fatal(err)
				}
			}

			// No apply workers: the first query's drain barrier applies the
			// whole backlog as one coalesced run.
			queued := newReg()
			m, err := queued.getOrCreateBackend(name, quantile.Backend(backend))
			if err != nil {
				t.Fatal(err)
			}
			for _, vs := range batches {
				enqueueDirect(t, m, vs)
			}

			mem := faultfs.NewMem()
			l, err := wal.Open("/wal", wal.Options{FS: mem, Sync: wal.SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			for _, vs := range batches {
				if _, err := l.Append(wal.Record{Metric: name, Backend: backend, Values: vs}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			replayed := newReg()
			srv := mustNew(t, replayed, Options{WALDir: "/wal", FS: mem})
			defer srv.Shutdown(context.Background())

			for path, reg := range map[string]*Registry{"ingest": ingested, "queue": queued, "replay": replayed} {
				res, err := reg.Quantiles(name, phis, false)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if !reflect.DeepEqual(res.Values, wantValues) || res.ErrorBound != wantBound || res.Count != want.Count() {
					t.Errorf("%s: served %v bound %v count %d; standalone %v bound %v count %d",
						path, res.Values, res.ErrorBound, res.Count, wantValues, wantBound, want.Count())
				}
				if st := reg.Status()[0]; st.ErrorBound != wantBound {
					t.Errorf("%s: /metricsz bound %v, standalone %v", path, st.ErrorBound, wantBound)
				}
				parts, err := reg.SnapshotParts(name)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if len(parts) != 1 || !bytes.Equal(parts[0].Blob, wantBlob) {
					t.Errorf("%s: %d snapshot parts, want one byte-identical to the standalone estimator", path, len(parts))
				}
			}
			if st := queued.ApplyStatus(); st.CoalescedBatches != int64(len(batches)) {
				t.Errorf("queue path coalesced %d of %d batches, want one run", st.CoalescedBatches, len(batches))
			}
		})
	}
}
