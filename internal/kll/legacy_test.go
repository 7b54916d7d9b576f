package kll

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// legacySketch rebuilds the sketches whose encodings sit in
// testdata/legacy_*.bin. Those blobs were written before compactors were
// kept sorted, so their levels >= 1 hold promotions in arrival order;
// legacy_*.json records the answers the sketch gave at the time.
func legacySketch(t *testing.T, name string) *Sketch {
	t.Helper()
	k, n, m := 8, 5000, 3000
	if name == "k200" {
		k, n, m = 200, 60000, 25000
	}
	rng := rand.New(rand.NewSource(int64(k)))
	vals := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.NormFloat64() * 100
		}
		return vs
	}
	s, o := mustNew(t, k, 3), mustNew(t, k, 4)
	feed(t, s, vals(n))
	feed(t, o, vals(m))
	if err := s.Absorb(o); err != nil {
		t.Fatal(err)
	}
	feed(t, s, vals(m/3))
	return s
}

var legacyNames = []string{"k8", "k200"}

func legacyPath(name, ext string) string {
	return filepath.Join("testdata", "legacy_"+name+ext)
}

// legacyAnswers is what a legacy sketch answered before it was encoded.
type legacyAnswers struct {
	Phis        []float64
	Values      []float64
	RankAt      []float64
	Ranks       []int64
	Bound       float64
	Memory      int
	Compactions int64
}

// TestLegacyBlobsRestoreIdentically restores blobs whose levels >= 1 are
// unsorted and requires the answers, ranks, bound, footprint and
// compaction count recorded when they were written.
func TestLegacyBlobsRestoreIdentically(t *testing.T) {
	for _, name := range legacyNames {
		blob, err := os.ReadFile(legacyPath(name, ".bin"))
		if err != nil {
			t.Fatal(err)
		}
		js, err := os.ReadFile(legacyPath(name, ".json"))
		if err != nil {
			t.Fatal(err)
		}
		var want legacyAnswers
		if err := json.Unmarshal(js, &want); err != nil {
			t.Fatal(err)
		}
		var s Sketch
		if err := s.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := s.Quantiles(want.Phis)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want.Values[i] {
				t.Errorf("%s phi=%v: restored %v, recorded %v", name, want.Phis[i], got[i], want.Values[i])
			}
		}
		for i, v := range want.RankAt {
			if r, _ := s.Rank(v); r != want.Ranks[i] {
				t.Errorf("%s Rank(%v) = %d, recorded %d", name, v, r, want.Ranks[i])
			}
		}
		if s.ErrorBound() != want.Bound || s.MemoryElements() != want.Memory || s.Compactions() != want.Compactions {
			t.Errorf("%s: bound/memory/compactions %v/%d/%d, recorded %v/%d/%d", name,
				s.ErrorBound(), s.MemoryElements(), s.Compactions(), want.Bound, want.Memory, want.Compactions)
		}
		// The restored sketch must also keep going exactly like a sketch
		// that never went through the encoder.
		fresh := legacySketch(t, name)
		more := make([]float64, 4000)
		for i := range more {
			more[i] = float64((i*7919)%4000) - 2000
		}
		feed(t, &s, more)
		feed(t, fresh, more)
		a, _ := s.Quantiles(want.Phis)
		b, _ := fresh.Quantiles(want.Phis)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s after more input, phi=%v: restored %v, fresh %v", name, want.Phis[i], a[i], b[i])
			}
		}
		if s.Compactions() != fresh.Compactions() || s.ErrorBound() != fresh.ErrorBound() {
			t.Errorf("%s after more input: restored diverged from fresh", name)
		}
	}
}
