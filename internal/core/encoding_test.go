package core

import (
	"encoding"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

var (
	_ encoding.BinaryMarshaler   = (*Sketch)(nil)
	_ encoding.BinaryUnmarshaler = (*Sketch)(nil)
)

func roundTrip(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Sketch{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return restored
}

func TestEncodingRoundTripAnswers(t *testing.T) {
	for _, p := range Policies {
		s := mustSketch(t, 4, 8, p)
		addAll(t, s, permutation(1000, 31))
		restored := roundTrip(t, s)
		for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
			a, errA := s.Quantile(phi)
			b, errB := restored.Quantile(phi)
			if errA != nil || errB != nil || a != b {
				t.Errorf("%v phi=%v: original %v (%v), restored %v (%v)", p, phi, a, errA, b, errB)
			}
		}
		if s.Stats() != restored.Stats() {
			t.Errorf("%v: stats differ: %+v vs %+v", p, s.Stats(), restored.Stats())
		}
		if s.Count() != restored.Count() {
			t.Errorf("%v: counts differ", p)
		}
		if s.ErrorBound() != restored.ErrorBound() {
			t.Errorf("%v: bounds differ", p)
		}
	}
}

// TestEncodingRoundTripContinuation: a restored sketch must consume further
// input exactly like the original would have.
func TestEncodingRoundTripContinuation(t *testing.T) {
	for _, p := range Policies {
		orig := mustSketch(t, 4, 8, p)
		first := permutation(777, 32)
		addAll(t, orig, first)
		restored := roundTrip(t, orig)
		second := permutation(777, 33)
		addAll(t, orig, second)
		addAll(t, restored, second)
		a, err := orig.Quantiles([]float64{0.1, 0.5, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		c, err := restored.Quantiles([]float64{0.1, 0.5, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != c[i] {
				t.Errorf("%v: continuation diverged: %v vs %v", p, a, c)
			}
		}
		if orig.Stats() != restored.Stats() {
			t.Errorf("%v: continuation stats diverged", p)
		}
	}
}

func TestEncodingEmptySketch(t *testing.T) {
	s := mustSketch(t, 3, 5, PolicyNew)
	restored := roundTrip(t, s)
	if restored.Count() != 0 || restored.B() != 3 || restored.K() != 5 {
		t.Fatalf("restored empty sketch: count=%d b=%d k=%d", restored.Count(), restored.B(), restored.K())
	}
	if _, err := restored.Quantile(0.5); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestEncodingPartialOnly(t *testing.T) {
	s := mustSketch(t, 3, 5, PolicyNew)
	addAll(t, s, []float64{3, 1, 2})
	restored := roundTrip(t, s)
	med, err := restored.Quantile(0.5)
	if err != nil || med != 2 {
		t.Fatalf("median = %v, %v", med, err)
	}
}

func TestEncodingRejectsGarbage(t *testing.T) {
	s := mustSketch(t, 3, 5, PolicyNew)
	addAll(t, s, permutation(100, 34))
	good, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		{},
		[]byte("XXXX"),
		good[:len(good)-3],            // truncated
		append([]byte{}, good[:8]...), // header only
	}
	// Corrupt the magic.
	cp := append([]byte(nil), good...)
	cp[0] = 'X'
	bad = append(bad, cp)
	// Trailing junk.
	bad = append(bad, append(append([]byte(nil), good...), 0xFF))
	// Implausible geometry.
	cp2 := append([]byte(nil), good...)
	cp2[6], cp2[7], cp2[8], cp2[9] = 0xFF, 0xFF, 0xFF, 0xFF
	bad = append(bad, cp2)
	for i, data := range bad {
		var r Sketch
		if err := r.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestPropertyEncodingRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := 2 + r.Intn(4)
		k := 1 + r.Intn(12)
		n := r.Intn(800)
		policy := Policies[r.Intn(len(Policies))]
		s, err := NewSketch(b, k, policy)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Add(r.Float64()) != nil {
				return false
			}
		}
		data, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		restored := &Sketch{}
		if err := restored.UnmarshalBinary(data); err != nil {
			return false
		}
		if n == 0 {
			return restored.Count() == 0
		}
		a, errA := s.Quantiles([]float64{0.3, 0.6})
		c, errC := restored.Quantiles([]float64{0.3, 0.6})
		if errA != nil || errC != nil {
			return false
		}
		return a[0] == c[0] && a[1] == c[1] && s.Stats() == restored.Stats()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodingRejectsOversizeGeometryBeforeAllocating: a header whose b·k
// exceeds maxEncodedElements is refused before NewSketch allocates the
// buffers it describes. The geometry here is just over the cap (64 MiB of
// buffers and scratch if allocated), so a decoder that allocated first would
// show it in the heap counters; a blob claiming b=2^20, k=2^28 would instead
// kill the process outright.
func TestEncodingRejectsOversizeGeometryBeforeAllocating(t *testing.T) {
	const b, k = 2, maxEncodedElements/2 + 1
	hdr := []byte(encMagic)
	hdr = append(hdr, byte(PolicyNew), flagEven)
	hdr = binary.LittleEndian.AppendUint32(hdr, b)
	hdr = binary.LittleEndian.AppendUint32(hdr, k)
	hdr = binary.LittleEndian.AppendUint64(hdr, 1) // count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s Sketch
	err := s.UnmarshalBinary(hdr)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("oversize geometry accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting b=%d k=%d allocated %d bytes first, want near zero", b, k, got)
	}
}
