package kll

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"mrl/internal/core"
)

// Wire format (little endian):
//
//	magic "KLL1" | k u32 | delta f64 | rng u64 | count i64 | absorbs i64
//	min f64 | max f64
//	levels u16
//	per level: items u32 | compactions i64 | item f64 ...
//
// The encoding carries the exact level contents in order and the coin
// generator state, so a restored sketch is bit-identical to the original:
// further Adds produce the same compactions, the same promotions and the
// same answers as if the snapshot had never happened. Levels above 0 are
// sorted; encodings written before the sketch kept them sorted hold them in
// promotion order, and decoding sorts them, which changes no answer.
const snapshotMagic = "KLL1"

// snapshotMaxLevels bounds the decoded stack height; item weights are
// 2^h, so any real sketch fits in far fewer than 64 levels.
const snapshotMaxLevels = 64

// snapshotMaxItems bounds a single decoded level, rejecting absurd
// allocations from corrupt headers before they happen.
const snapshotMaxItems = 1 << 28

// ErrCorrupt is wrapped by every decode failure.
var ErrCorrupt = errors.New("kll: corrupt snapshot")

// MarshalBinary serialises the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	le := binary.LittleEndian
	var scratch [8]byte
	putU32 := func(v uint32) { le.PutUint32(scratch[:4], v); buf.Write(scratch[:4]) }
	putU64 := func(v uint64) { le.PutUint64(scratch[:8], v); buf.Write(scratch[:8]) }
	putU32(uint32(s.k))
	putU64(math.Float64bits(s.delta))
	putU64(s.rng)
	putU64(uint64(s.count))
	putU64(uint64(s.absorbs))
	putU64(math.Float64bits(s.min))
	putU64(math.Float64bits(s.max))
	le.PutUint16(scratch[:2], uint16(len(s.compactors)))
	buf.Write(scratch[:2])
	for h, c := range s.compactors {
		putU32(uint32(len(c)))
		var m int64
		if h < len(s.compactions) {
			m = s.compactions[h]
		}
		putU64(uint64(m))
		for _, v := range c {
			putU64(math.Float64bits(v))
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary replaces s with the decoded sketch. Corruption is
// detected structurally — magic, bounds, NaN items, min/max ordering and
// the weight-conservation invariant (sum of level sizes times 2^h must
// equal count) — and reported wrapping ErrCorrupt, leaving s untouched.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != snapshotMagic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	le := binary.LittleEndian
	var scratch [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, scratch[:4]); err != nil {
			return 0, err
		}
		return le.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, scratch[:8]); err != nil {
			return 0, err
		}
		return le.Uint64(scratch[:8]), nil
	}
	k32, err := readU32()
	if err != nil {
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if k32 < MinK || k32 > math.MaxInt32 {
		return fmt.Errorf("%w: k %d out of range", ErrCorrupt, k32)
	}
	deltaBits, err := readU64()
	if err != nil {
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	delta := math.Float64frombits(deltaBits)
	if !(delta > 0 && delta < 1) { // also rejects NaN
		return fmt.Errorf("%w: delta %v outside (0,1)", ErrCorrupt, delta)
	}
	rng, err := readU64()
	if err != nil {
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if rng == 0 {
		return fmt.Errorf("%w: zero generator state", ErrCorrupt)
	}
	countU, err := readU64()
	if err != nil {
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	count := int64(countU)
	if count < 0 {
		return fmt.Errorf("%w: negative count", ErrCorrupt)
	}
	absorbsU, err := readU64()
	if err != nil {
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	absorbs := int64(absorbsU)
	if absorbs < 0 {
		return fmt.Errorf("%w: negative absorb counter", ErrCorrupt)
	}
	minBits, err := readU64()
	if err != nil {
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	maxBits, err := readU64()
	if err != nil {
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	minV, maxV := math.Float64frombits(minBits), math.Float64frombits(maxBits)
	if count > 0 && (math.IsNaN(minV) || math.IsNaN(maxV) || minV > maxV) {
		return fmt.Errorf("%w: min/max out of order", ErrCorrupt)
	}
	if _, err := io.ReadFull(r, scratch[:2]); err != nil {
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	levels := int(le.Uint16(scratch[:2]))
	if levels < 1 || levels > snapshotMaxLevels {
		return fmt.Errorf("%w: %d levels out of range", ErrCorrupt, levels)
	}
	compactors := make([][]float64, levels)
	compactions := make([]int64, levels)
	var sorter core.FloatSorter
	size := 0
	var weight int64
	for h := 0; h < levels; h++ {
		n32, err := readU32()
		if err != nil {
			return fmt.Errorf("%w: truncated level header", ErrCorrupt)
		}
		if n32 > snapshotMaxItems {
			return fmt.Errorf("%w: implausible level size %d", ErrCorrupt, n32)
		}
		mU, err := readU64()
		if err != nil {
			return fmt.Errorf("%w: truncated level header", ErrCorrupt)
		}
		m := int64(mU)
		if m < 0 {
			return fmt.Errorf("%w: negative compaction counter", ErrCorrupt)
		}
		compactions[h] = m
		n := int(n32)
		items := make([]float64, n)
		for i := 0; i < n; i++ {
			bits, err := readU64()
			if err != nil {
				return fmt.Errorf("%w: truncated items", ErrCorrupt)
			}
			v := math.Float64frombits(bits)
			if math.IsNaN(v) {
				return fmt.Errorf("%w: NaN item", ErrCorrupt)
			}
			if count > 0 && (v < minV || v > maxV) {
				return fmt.Errorf("%w: item outside min/max", ErrCorrupt)
			}
			items[i] = v
		}
		if h > 0 && !slices.IsSorted(items) {
			sorter.Sort(items)
		}
		compactors[h] = items
		size += n
		weight += int64(n) << uint(h)
	}
	if weight != count {
		return fmt.Errorf("%w: level weights sum to %d, count is %d", ErrCorrupt, weight, count)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	s.k = int(k32)
	s.delta = delta
	s.rng = rng
	s.count = count
	s.absorbs = absorbs
	s.min, s.max = minV, maxV
	s.compactors = compactors
	s.compactions = compactions
	s.size = size
	// Rebuild the capacity schedule for the decoded height, then settle any
	// over-budget state (a snapshot taken mid-growth decodes fine).
	s.recap()
	if s.size >= s.budget {
		s.compress()
	}
	return nil
}
