package parallel

import (
	"math"
	"strings"
	"testing"

	"mrl/internal/core"
	"mrl/internal/stream"
)

// TestCombineSnapshotsMatchesCombine: freezing sketches first must give
// exactly the result of combining them directly.
func TestCombineSnapshotsMatchesCombine(t *testing.T) {
	data := shuffledData(20000, 11)
	phis := []float64{0.1, 0.5, 0.9}
	sketches := make([]*core.Sketch, 4)
	parts := Partition(data, len(sketches))
	for i := range sketches {
		s, err := core.NewSketch(5, 64, core.PolicyNew)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Each(parts[i], s.Add); err != nil {
			t.Fatal(err)
		}
		sketches[i] = s
	}
	direct, err := Combine(sketches, phis)
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]Snapshot, len(sketches))
	for i, s := range sketches {
		snaps[i] = Snap(s)
	}
	frozen, err := CombineSnapshots(snaps, phis)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Count != direct.Count || frozen.Workers != direct.Workers ||
		frozen.ErrorBound != direct.ErrorBound {
		t.Fatalf("snapshot combine %+v != direct %+v", frozen, direct)
	}
	for i := range phis {
		if frozen.Values[i] != direct.Values[i] {
			t.Fatalf("phi=%v: %v != %v", phis[i], frozen.Values[i], direct.Values[i])
		}
	}
	if got := CombinedBound(snaps); got != direct.ErrorBound {
		t.Fatalf("CombinedBound = %v, want %v", got, direct.ErrorBound)
	}
}

// TestSnapshotIsFrozen: a snapshot must stay valid and unchanged while the
// source sketch keeps absorbing input — the property concurrent readers
// depend on.
func TestSnapshotIsFrozen(t *testing.T) {
	s, err := core.NewSketch(4, 32, core.PolicyNew)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSlice(shuffledData(5000, 12)); err != nil {
		t.Fatal(err)
	}
	snap := Snap(s)
	before, err := CombineSnapshots([]Snapshot{snap}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Keep feeding the live sketch; the frozen view must not move.
	if err := s.AddSlice(shuffledData(5000, 13)); err != nil {
		t.Fatal(err)
	}
	after, err := CombineSnapshots([]Snapshot{snap}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if before.Values[0] != after.Values[0] || before.Count != after.Count ||
		before.ErrorBound != after.ErrorBound {
		t.Fatalf("snapshot drifted: before %+v, after %+v", before, after)
	}
}

// TestSnapEmptySketch: an empty sketch snapshots to the zero value and is
// skipped by the combiner.
func TestSnapEmptySketch(t *testing.T) {
	empty, err := core.NewSketch(3, 8, core.PolicyNew)
	if err != nil {
		t.Fatal(err)
	}
	if sn := Snap(empty); sn.Count != 0 || len(sn.Views) != 0 {
		t.Fatalf("empty snapshot not zero: %+v", sn)
	}
	full, err := core.NewSketch(3, 8, core.PolicyNew)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.AddSlice([]float64{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	res, err := CombineSnapshots([]Snapshot{Snap(empty), Snap(full)}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 || res.Count != 3 || res.Values[0] != 2 {
		t.Fatalf("res = %+v", res)
	}
	if _, err := CombineSnapshots([]Snapshot{Snap(empty)}, []float64{0.5}); err != core.ErrEmpty {
		t.Fatalf("all-empty combine: err = %v, want ErrEmpty", err)
	}
}

// TestQuantilesReportsAllPartitionErrors: when several sources fail, every
// failure must surface, each tagged with its partition index.
func TestQuantilesReportsAllPartitionErrors(t *testing.T) {
	sources := []stream.Source{
		stream.FromSlice("bad-0", []float64{1, math.NaN()}),
		stream.FromSlice("ok-1", []float64{2, 3}),
		stream.FromSlice("bad-2", []float64{math.NaN()}),
	}
	_, err := Quantiles(sources, 3, 4, core.PolicyNew, []float64{0.5})
	if err == nil {
		t.Fatal("Quantiles accepted NaN partitions")
	}
	msg := err.Error()
	for _, want := range []string{"partition 0", "partition 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not report %q", msg, want)
		}
	}
	if strings.Contains(msg, "partition 1") {
		t.Errorf("error %q blames the healthy partition 1", msg)
	}
}

// TestQuantilesSingleErrorKeepsIndex: the single-failure message still names
// the offending partition.
func TestQuantilesSingleErrorKeepsIndex(t *testing.T) {
	sources := []stream.Source{
		stream.FromSlice("ok-0", []float64{1, 2}),
		stream.FromSlice("bad-1", []float64{math.NaN()}),
	}
	_, err := Quantiles(sources, 3, 4, core.PolicyNew, []float64{0.5})
	if err == nil || !strings.Contains(err.Error(), "partition 1") {
		t.Fatalf("err = %v, want partition 1 named", err)
	}
}

// TestCombinedBoundCountsAbsorbs: a sketch that absorbed others carries one
// independently alternating collapse sequence per absorb, and its own
// ErrorBound charges Absorbs/2 for them. The combined certificate over that
// sketch alone must agree exactly, for any number of absorbs.
func TestCombinedBoundCountsAbsorbs(t *testing.T) {
	data := shuffledData(6000, 23)
	parts := Partition(data, 4)
	sketches := make([]*core.Sketch, len(parts))
	for i := range sketches {
		s, err := core.NewSketch(6, 64, core.PolicyNew)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Each(parts[i], s.Add); err != nil {
			t.Fatal(err)
		}
		sketches[i] = s
	}
	root := sketches[0]
	for absorbs, other := range sketches[1:] {
		if got, want := CombinedBound([]Snapshot{Snap(root)}), root.ErrorBound(); got != want {
			t.Fatalf("after %d absorbs: CombinedBound %v, sketch ErrorBound %v", absorbs, got, want)
		}
		if err := root.Absorb(other); err != nil {
			t.Fatal(err)
		}
	}
	if st := root.Stats(); st.Absorbs != 3 {
		t.Fatalf("Absorbs %d, want 3", st.Absorbs)
	}
	if got, want := CombinedBound([]Snapshot{Snap(root)}), root.ErrorBound(); got != want {
		t.Fatalf("after 3 absorbs: CombinedBound %v, sketch ErrorBound %v", got, want)
	}
	res, err := CombineSnapshots([]Snapshot{Snap(root)}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorBound != root.ErrorBound() {
		t.Fatalf("CombineSnapshots bound %v, sketch ErrorBound %v", res.ErrorBound, root.ErrorBound())
	}
}
