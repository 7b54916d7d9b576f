package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// goldenSketch rebuilds one of the sketches whose encodings are pinned in
// testdata/golden_*.bin. The blobs were written by the original
// binary.Write-based encoder, so these tests hold the hand-rolled encoder
// and decoder to its exact byte layout.
func goldenSketch(t *testing.T, name string) *Sketch {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	vals := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.NormFloat64() * 1e3
		}
		return vs
	}
	switch name {
	case "empty":
		return mustSketch(t, 3, 8, PolicyNew)
	case "new-midfill":
		s := mustSketch(t, 5, 64, PolicyNew)
		addAll(t, s, vals(1000))
		return s
	case "mp-exact":
		s := mustSketch(t, 4, 33, PolicyMunroPaterson)
		addAll(t, s, vals(33*7))
		return s
	case "ars-frozen":
		s := mustSketch(t, 6, 17, PolicyARS)
		s.DisableOffsetAlternation()
		addAll(t, s, vals(500))
		return s
	case "absorbed-specials":
		s := mustSketch(t, 4, 16, PolicyNew)
		o := mustSketch(t, 4, 16, PolicyNew)
		specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -0.5, 0.5}
		addAll(t, s, append(vals(150), specials...))
		addAll(t, o, append(specials, vals(90)...))
		if err := s.Absorb(o); err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Fatalf("unknown golden sketch %q", name)
	return nil
}

var goldenNames = []string{"empty", "new-midfill", "mp-exact", "ars-frozen", "absorbed-specials"}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".bin")
}

// TestEncodingGolden pins MarshalBinary byte for byte, and requires every
// golden blob to decode and re-encode to the same bytes.
func TestEncodingGolden(t *testing.T) {
	for _, name := range goldenNames {
		want, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := goldenSketch(t, name).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding differs from golden (%d vs %d bytes)", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: encoding allocated cap %d for %d bytes", name, cap(got), len(got))
		}
		var restored Sketch
		if err := restored.UnmarshalBinary(want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := restored.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decode/re-encode is not the identity", name)
		}
	}
}
