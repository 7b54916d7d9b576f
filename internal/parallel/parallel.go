// Package parallel implements Section 4.9 of the MRL paper: the input
// stream is partitioned (statically here — each partition is a Source)
// across worker "nodes", each node runs its own sketch, and a single final
// OUTPUT phase selects quantiles from the concatenation of every node's
// final buffers. For very high degrees of parallelism a two-stage variant
// first collapses each group of node roots into a single buffer.
package parallel

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"mrl/internal/core"
	"mrl/internal/stream"
)

// Result carries the combined quantile answers and the accounting needed to
// reason about their quality.
type Result struct {
	// Values holds the quantile estimates, parallel to the requested phis.
	Values []float64
	// Count is the total number of elements consumed across partitions.
	Count int64
	// ErrorBound is the worst-case rank error of the combined OUTPUT: the
	// Lemma 5 telescoping applied to the forest of partition trees hanging
	// off one virtual root. With R roots it evaluates to
	// (W - C + R - 2)/2 + wmax over the pooled collapse statistics, where
	// each partition counts as 1 + Absorbs roots (see CombinedBound).
	ErrorBound float64
	// Workers is the number of partitions processed.
	Workers int
}

// Quantiles streams each source through its own (b, k, policy) sketch on
// its own goroutine and combines the results in a final OUTPUT phase.
func Quantiles(sources []stream.Source, b, k int, policy core.Policy, phis []float64) (Result, error) {
	if len(sources) == 0 {
		return Result{}, errors.New("parallel: no sources")
	}
	sketches := make([]*core.Sketch, len(sources))
	for i := range sketches {
		s, err := core.NewSketch(b, k, policy)
		if err != nil {
			return Result{}, err
		}
		sketches[i] = s
	}
	errs := make([]error, len(sources))
	var wg sync.WaitGroup
	for i := range sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = stream.Each(sources[i], sketches[i].Add)
		}(i)
	}
	wg.Wait()
	// Every partition ran to completion above, so report every failure —
	// each tagged with its partition index — rather than just the first.
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("partition %d: %w", i, err))
		}
	}
	if len(failed) > 0 {
		return Result{}, fmt.Errorf("parallel: %w", errors.Join(failed...))
	}
	return Combine(sketches, phis)
}

// Snapshot is a frozen, self-contained view of one sketch: deep copies of
// the buffers that would feed OUTPUT plus the accounting the combined
// Lemma 5 bound needs. Because a snapshot owns its data it stays valid while
// the source sketch keeps absorbing input, which is what lets the combine
// step run against live, concurrently written sketches (quantile.Concurrent)
// and not only against statically partitioned stream.Sources.
type Snapshot struct {
	// Views holds the final buffers (sorted runs with weights). Empty for a
	// sketch that has consumed nothing.
	Views []core.Weighted
	// Count is the number of elements the sketch had consumed.
	Count int64
	// Stats is the sketch's collapse accounting at snapshot time.
	Stats core.Stats
}

// Snap freezes the current state of s. A sketch that has consumed no input
// yields the zero Snapshot, which CombineSnapshots skips.
func Snap(s *core.Sketch) Snapshot {
	if s.Count() == 0 {
		return Snapshot{}
	}
	views, err := s.FinalBuffersRaw()
	if err != nil {
		// FinalBuffersRaw only errors on an empty sketch, guarded above.
		return Snapshot{}
	}
	return Snapshot{Views: views, Count: s.Count(), Stats: s.Stats()}
}

// CombineSnapshots runs the final OUTPUT phase of Section 4.9 over frozen
// sketch states: the weighted merge of every snapshot's final buffers is
// selected at the requested ranks, and the pooled collapse statistics give
// the combined worst-case rank error. Empty snapshots are skipped; at least
// one snapshot must hold data.
func CombineSnapshots(snaps []Snapshot, phis []float64) (Result, error) {
	if len(snaps) == 0 {
		return Result{}, errors.New("parallel: no snapshots")
	}
	var views []core.Weighted
	var count int64
	workers := 0
	for _, sn := range snaps {
		if sn.Count == 0 {
			continue
		}
		views = append(views, sn.Views...)
		count += sn.Count
		workers++
	}
	if count == 0 {
		return Result{}, core.ErrEmpty
	}
	values, err := selectQuantiles(views, phis, count)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Values:     values,
		Count:      count,
		ErrorBound: CombinedBound(snaps),
		Workers:    workers,
	}, nil
}

// CombinedBound evaluates the combined Lemma 5 certificate of the snapshots
// without selecting any quantiles: the telescoping applied to the forest of
// partition trees hanging off one virtual root, (W - C + R - 2)/2 + wmax
// over the pooled collapse statistics of the non-empty snapshots. R counts
// roots: a snapshot is one tree, plus one more for every sketch it absorbed,
// because each absorb concatenated an independently alternating collapse
// sequence and so weakens the Lemma 1 floor by 1/2 rank, exactly as
// core.Sketch.ErrorBound charges Absorbs/2. For a single snapshot the
// result therefore equals the sketch's own ErrorBound.
func CombinedBound(snaps []Snapshot) float64 {
	var sumW, sumC, roots, wmax int64
	for _, sn := range snaps {
		if sn.Count == 0 {
			continue
		}
		sumW += sn.Stats.WeightSum
		sumC += sn.Stats.Collapses
		roots += 1 + sn.Stats.Absorbs
		for _, v := range sn.Views {
			if v.Weight > wmax {
				wmax = v.Weight
			}
		}
	}
	if roots == 0 {
		return 0
	}
	bound := float64(sumW-sumC+roots-2)/2 + float64(wmax)
	if bound < 0 {
		bound = 0
	}
	return bound
}

// Combine runs the final OUTPUT phase over the final buffers of
// independently built sketches: the root-concatenation step of Section 4.9.
// Empty sketches are skipped; at least one sketch must hold data. Combine is
// a convenience over Snap + CombineSnapshots for callers that own the
// sketches outright; callers combining live sketches should Snap each one
// under its own lock and call CombineSnapshots.
func Combine(sketches []*core.Sketch, phis []float64) (Result, error) {
	if len(sketches) == 0 {
		return Result{}, errors.New("parallel: no sketches")
	}
	snaps := make([]Snapshot, len(sketches))
	for i, s := range sketches {
		snaps[i] = Snap(s)
	}
	return CombineSnapshots(snaps, phis)
}

// TwoStage is the high-parallelism variant of Section 4.9: node roots are
// grouped, each group's buffers collapse into one summary buffer of
// groupKeep elements, and the final OUTPUT runs over the group summaries.
// Each group collapse adds at most half its weight to the error bound,
// which TwoStage accounts for in the returned ErrorBound.
func TwoStage(sketches []*core.Sketch, groupSize, groupKeep int, phis []float64) (Result, error) {
	if len(sketches) == 0 {
		return Result{}, errors.New("parallel: no sketches")
	}
	if groupSize < 1 {
		return Result{}, fmt.Errorf("parallel: group size %d must be positive", groupSize)
	}
	if groupKeep < 1 {
		return Result{}, fmt.Errorf("parallel: group keep %d must be positive", groupKeep)
	}
	var groupViews []core.Weighted
	var count, sumW, sumC, roots int64
	var extra float64 // bound contribution of the group collapses
	workers := 0

	for start := 0; start < len(sketches); start += groupSize {
		end := start + groupSize
		if end > len(sketches) {
			end = len(sketches)
		}
		var views []core.Weighted
		for _, s := range sketches[start:end] {
			if s.Count() == 0 {
				continue
			}
			v, err := s.FinalBuffersRaw()
			if err != nil {
				return Result{}, err
			}
			views = append(views, v...)
			count += s.Count()
			st := s.Stats()
			sumW += st.WeightSum
			sumC += st.Collapses
			roots += 1 + st.Absorbs // as in CombinedBound
			workers++
		}
		if len(views) == 0 {
			continue
		}
		merged, loss := collapseViews(views, groupKeep)
		extra += loss
		groupViews = append(groupViews, merged)
	}
	if count == 0 {
		return Result{}, core.ErrEmpty
	}
	var wmax int64
	for _, v := range groupViews {
		if v.Weight > wmax {
			wmax = v.Weight
		}
	}
	values, err := selectQuantiles(groupViews, phis, count)
	if err != nil {
		return Result{}, err
	}
	bound := float64(sumW-sumC+roots-2)/2 + float64(wmax) + extra
	if bound < 0 {
		bound = 0
	}
	return Result{Values: values, Count: count, ErrorBound: bound, Workers: workers}, nil
}

// collapseViews merges weighted buffers into a single buffer of keep
// equally spaced elements (a COLLAPSE across partition roots). It returns
// the merged buffer and a safe overestimate of the rank slack the step
// introduces: a collapse whose output slots weigh w loses at most
// w - offset < w ranks of definitely-small/large evidence (Section 4.2),
// plus at most w for the ceil rounding of w itself.
func collapseViews(views []core.Weighted, keep int) (core.Weighted, float64) {
	total := core.TotalWeight(views) // weighted slots across the group
	if total == 0 {
		return core.Weighted{Data: nil, Weight: 0}, 0
	}
	// Per-slot weight of the output: spread total over keep slots. Round
	// up so keep*weight >= total; the selection positions stay inside.
	w := (total + int64(keep) - 1) / int64(keep)
	offset := (w + 1) / 2
	targets := make([]int64, keep)
	for j := 0; j < keep; j++ {
		pos := int64(j)*w + offset
		if pos > total {
			pos = total
		}
		targets[j] = pos
	}
	data := core.SelectInMerge(views, targets)
	// Strip any NaNs from degenerate tiny groups (cannot happen when
	// total >= 1, but keep the output well formed regardless).
	clean := data[:0]
	for _, v := range data {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	sort.Float64s(clean)
	return core.Weighted{Data: clean, Weight: w}, 2 * float64(w)
}

// selectQuantiles maps phis onto positions of the weighted merge of views,
// whose slots stand for exactly count real elements, and selects them.
func selectQuantiles(views []core.Weighted, phis []float64, count int64) ([]float64, error) {
	type tgt struct {
		pos int64
		idx int
	}
	tgts := make([]tgt, len(phis))
	for i, phi := range phis {
		if phi < 0 || phi > 1 || math.IsNaN(phi) {
			return nil, fmt.Errorf("parallel: phi %v outside [0,1]", phi)
		}
		r := int64(math.Ceil(phi * float64(count)))
		if r < 1 {
			r = 1
		}
		if r > count {
			r = count
		}
		tgts[i] = tgt{pos: r, idx: i}
	}
	sort.Slice(tgts, func(i, j int) bool { return tgts[i].pos < tgts[j].pos })
	positions := make([]int64, len(tgts))
	for i, t := range tgts {
		positions[i] = t.pos
	}
	picked := core.SelectInMerge(views, positions)
	out := make([]float64, len(phis))
	for i, t := range tgts {
		out[t.idx] = picked[i]
	}
	return out, nil
}

// Partition splits a materialised dataset into p contiguous chunks wrapped
// as sources, a convenience for tests and examples that simulate static
// partitioning across nodes.
func Partition(data []float64, p int) []stream.Source {
	if p < 1 {
		p = 1
	}
	if p > len(data) && len(data) > 0 {
		p = len(data)
	}
	out := make([]stream.Source, 0, p)
	per := len(data) / p
	extra := len(data) % p
	pos := 0
	for i := 0; i < p; i++ {
		sz := per
		if i < extra {
			sz++
		}
		out = append(out, stream.FromSlice(fmt.Sprintf("part-%d", i), data[pos:pos+sz]))
		pos += sz
	}
	return out
}
