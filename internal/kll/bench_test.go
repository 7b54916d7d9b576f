package kll

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchSketch(b *testing.B, k, n int) *Sketch {
	b.Helper()
	s, err := New(k, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if err := s.Add(rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// The sub-benchmark names carry a "kll/" prefix so these land in the same
// gated namespace as internal/core's BenchmarkAdd/AddBatch/Quantiles
// without colliding: the bench gate matches ^Benchmark(Add|AddBatch|Quantiles)/.

// The k=2000 rows are the served geometry: quantiled derives k = 2/epsilon
// and runs at epsilon 0.001.

func BenchmarkAdd(b *testing.B) {
	for _, k := range []int{200, 2000} {
		b.Run(fmt.Sprintf("kll/k=%d", k), func(b *testing.B) {
			s, err := New(k, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			vals := make([]float64, 1<<16)
			for i := range vals {
				vals[i] = rng.Float64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Add(vals[i&(len(vals)-1)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAddBatch(b *testing.B) {
	for _, k := range []int{200, 2000} {
		b.Run(fmt.Sprintf("kll/k=%d/batch=1024", k), func(b *testing.B) {
			s, err := New(k, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			batch := make([]float64, 1024)
			for i := range batch {
				batch[i] = rng.Float64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.AddBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQuantiles(b *testing.B) {
	for _, tc := range []struct {
		k    int
		phis []float64
	}{
		{200, []float64{0.01, 0.25, 0.5, 0.75, 0.99}},
		{2000, []float64{0.01, 0.25, 0.75, 0.999}},
	} {
		b.Run(fmt.Sprintf("kll/k=%d/q=%d", tc.k, len(tc.phis)), func(b *testing.B) {
			s := benchSketch(b, tc.k, 1_000_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Quantiles(tc.phis); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
