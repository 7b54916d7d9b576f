package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary layout (little endian):
//
//	magic "MRL2" | policy u8 | flags u8 | b u32 | k u32 | count i64 | min f64 | max f64
//	stats: leaves, collapses, weightSum, maxCollapseWeight, fallbacks (i64)
//	nFull u32, then per full buffer: slot u32 | weight i64 | level i32 | k float64
//	fillSlot u32, fillLen u32, fillLevel i32, then fillLen float64
//
// flags bit 0: evenHigh; bit 1: noAlternation; bit 2: fill buffer present.
//
// Slots record each buffer's position in the b-slot array. They matter for
// exact continuation: NEW fills the first empty slot and Munro-Paterson
// breaks weight ties by slot order, so compacting buffers on restore would
// send the restored sketch down a different collapse schedule than the
// original ("MRL1" did exactly that, which is why the magic changed).
// maxEncodedElements caps b·k, the buffer payload a decoded header makes
// NewSketch allocate before a single value has been read. Every geometry
// this repo provisions sits well below it: the daemon's default plan
// (ε=0.001, N=50M) is b=8, k=4371 (35k elements), and the largest plan in
// the paper's Table 1 (ARS at ε=0.001, N=10^9) is 1.4M elements. Without
// the cap a header of a hundred bytes, arriving in a checkpoint file or a
// cluster node's /snapshot body, could demand terabytes and kill the
// process; with it a corrupt or hostile header costs at most 32 MiB.
const maxEncodedElements = 1 << 22

const (
	encMagic   = "MRL2"
	flagEven   = 1 << 0
	flagFrozen = 1 << 1
	flagFill   = 1 << 2
)

// Fixed sizes of the encoding: the header through the fill-buffer trailer,
// and the per-full-buffer header (slot, weight, level).
const (
	encFixedLen     = 4 + 1 + 1 + 4 + 4 + 3*8 + 7*8 + 4 + 4 + 4 + 4
	encBufHeaderLen = 4 + 8 + 4
)

// MarshalBinary serialises the complete sketch state. A restored sketch
// continues exactly where the original stopped: same answers, same error
// bound, same future collapse schedule. This is the wire format for
// shipping partition summaries between nodes of a distributed plan. The
// output is allocated once, at its exact size.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var flags byte
	if s.evenHigh {
		flags |= flagEven
	}
	if s.noAlternation {
		flags |= flagFrozen
	}
	hasFill := s.fill != nil && len(s.fill.data) > 0
	if hasFill {
		flags |= flagFill
	}
	size := encFixedLen
	nFull := 0
	for _, b := range s.bufs {
		if b.full {
			nFull++
			size += encBufHeaderLen + 8*len(b.data)
		}
	}
	if hasFill {
		size += 8 * len(s.fill.data)
	}

	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, encMagic...)
	buf = append(buf, byte(s.policy), flags)
	buf = le.AppendUint32(buf, uint32(s.b))
	buf = le.AppendUint32(buf, uint32(s.k))
	buf = le.AppendUint64(buf, uint64(s.count))
	buf = le.AppendUint64(buf, math.Float64bits(s.min))
	buf = le.AppendUint64(buf, math.Float64bits(s.max))
	for _, v := range []int64{
		s.stats.Leaves, s.stats.Collapses, s.stats.WeightSum,
		s.stats.MaxCollapseWeight, s.stats.OffsetSum, s.stats.Absorbs, s.stats.Fallbacks,
	} {
		buf = le.AppendUint64(buf, uint64(v))
	}
	buf = le.AppendUint32(buf, uint32(nFull))
	for i, b := range s.bufs {
		if b.full {
			buf = le.AppendUint32(buf, uint32(i))
			buf = le.AppendUint64(buf, uint64(b.weight))
			buf = le.AppendUint32(buf, uint32(int32(b.level)))
			buf = appendFloats(buf, b.data)
		}
	}
	var fillSlot, fillLen uint32
	var fillLevel int32
	if hasFill {
		for i, b := range s.bufs {
			if b == s.fill {
				fillSlot = uint32(i)
			}
		}
		fillLen = uint32(len(s.fill.data))
		fillLevel = int32(s.fill.level)
	}
	buf = le.AppendUint32(buf, fillSlot)
	buf = le.AppendUint32(buf, fillLen)
	buf = le.AppendUint32(buf, uint32(fillLevel))
	if hasFill {
		buf = appendFloats(buf, s.fill.data)
	}
	return buf, nil
}

// appendFloats appends vs as little-endian IEEE-754 bit patterns.
func appendFloats(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decoder reads the little-endian fields of an encoding in order. A read
// past the end returns zero and sets short; callers check it at the same
// points the format's validation runs, so a truncated blob reports
// truncation rather than a bogus field.
type decoder struct {
	data  []byte
	short bool
}

func (d *decoder) take(n int) []byte {
	if len(d.data) < n {
		d.short = true
		d.data = nil
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// floats decodes len(dst) floats straight into dst.
func (d *decoder) floats(dst []float64) {
	b := d.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

var errTruncated = fmt.Errorf("core: truncated sketch encoding: %w", io.ErrUnexpectedEOF)

// UnmarshalBinary restores a sketch serialised by MarshalBinary. The
// receiver's previous state is discarded.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < len(encMagic) || string(data[:len(encMagic)]) != encMagic {
		return errors.New("core: bad sketch encoding magic")
	}
	d := decoder{data: data[len(encMagic):]}
	head := d.take(2)
	b32, k32 := d.u32(), d.u32()
	if d.short {
		return errTruncated
	}
	polByte, flags := head[0], head[1]
	if b32 < 2 || k32 < 1 || b32 > 1<<20 || uint64(b32)*uint64(k32) > maxEncodedElements {
		return fmt.Errorf("core: implausible sketch geometry b=%d k=%d", b32, k32)
	}
	restored, err := NewSketch(int(b32), int(k32), Policy(polByte))
	if err != nil {
		return err
	}
	restored.evenHigh = flags&flagEven != 0
	restored.noAlternation = flags&flagFrozen != 0
	restored.count = int64(d.u64())
	restored.min = math.Float64frombits(d.u64())
	restored.max = math.Float64frombits(d.u64())
	for _, p := range []*int64{
		&restored.stats.Leaves, &restored.stats.Collapses, &restored.stats.WeightSum,
		&restored.stats.MaxCollapseWeight, &restored.stats.OffsetSum,
		&restored.stats.Absorbs, &restored.stats.Fallbacks,
	} {
		*p = int64(d.u64())
		if d.short {
			return errTruncated
		}
		if *p < 0 {
			return fmt.Errorf("core: negative collapse statistic %d", *p)
		}
	}
	if restored.count < 0 {
		return fmt.Errorf("core: negative element count %d", restored.count)
	}
	if restored.count > 0 {
		if math.IsNaN(restored.min) || math.IsNaN(restored.max) || restored.min > restored.max {
			return fmt.Errorf("core: corrupt extremes min=%v max=%v", restored.min, restored.max)
		}
	}
	nFull := d.u32()
	if d.short {
		return errTruncated
	}
	if nFull > b32 {
		return fmt.Errorf("core: %d full buffers exceed b=%d", nFull, b32)
	}
	if restored.count == 0 && (nFull > 0 || flags&flagFill != 0) {
		return errors.New("core: buffers encoded for an empty sketch")
	}
	prevSlot := -1
	for i := uint32(0); i < nFull; i++ {
		slot := d.u32()
		if d.short {
			return errTruncated
		}
		// Slots are written in array order, so they must be strictly
		// increasing and in range; each full buffer goes back to the exact
		// position it occupied, which the collapse scheduling depends on.
		if slot >= b32 || int(slot) <= prevSlot {
			return fmt.Errorf("core: buffer slot %d out of order (b=%d)", slot, b32)
		}
		prevSlot = int(slot)
		buf := restored.bufs[slot]
		buf.weight = int64(d.u64())
		level := int32(d.u32())
		if d.short {
			return errTruncated
		}
		if buf.weight < 1 {
			return fmt.Errorf("core: buffer weight %d invalid", buf.weight)
		}
		buf.level = int(level)
		buf.data = buf.data[:k32]
		d.floats(buf.data)
		if d.short {
			return errTruncated
		}
		// Buffers are sorted runs of stream elements: every value must lie
		// within the recorded extremes and the run must be non-decreasing.
		// Corruption of the float payload is caught here instead of
		// surfacing later as silently wrong answers.
		for j, v := range buf.data {
			if math.IsNaN(v) {
				return errors.New("core: NaN in encoded buffer")
			}
			if v < restored.min || v > restored.max {
				return fmt.Errorf("core: buffer value %v outside extremes [%v, %v]", v, restored.min, restored.max)
			}
			if j > 0 && v < buf.data[j-1] {
				return errors.New("core: encoded buffer run not sorted")
			}
		}
		buf.full = true
	}
	fillSlot, fillLen, fillLevel := d.u32(), d.u32(), int32(d.u32())
	if d.short {
		return errTruncated
	}
	if flags&flagFill == 0 {
		if fillSlot != 0 || fillLen != 0 || fillLevel != 0 {
			return errors.New("core: fill buffer fields set without fill flag")
		}
	} else {
		if fillLen == 0 || fillLen >= k32 || nFull >= b32 {
			return fmt.Errorf("core: invalid fill buffer length %d", fillLen)
		}
		if fillSlot >= b32 || restored.bufs[fillSlot].full {
			return fmt.Errorf("core: fill buffer slot %d invalid", fillSlot)
		}
		fill := restored.bufs[fillSlot]
		fill.level = int(fillLevel)
		fill.data = fill.data[:fillLen]
		d.floats(fill.data)
		if d.short {
			return errTruncated
		}
		// The fill buffer is raw arrival order (sorted only on completion),
		// so only the range invariant applies here.
		for _, v := range fill.data {
			if math.IsNaN(v) {
				return errors.New("core: NaN in encoded buffer")
			}
			if v < restored.min || v > restored.max {
				return fmt.Errorf("core: fill value %v outside extremes [%v, %v]", v, restored.min, restored.max)
			}
		}
		restored.fill = fill
	}
	if len(d.data) != 0 {
		return fmt.Errorf("core: %d trailing bytes in sketch encoding", len(d.data))
	}
	*s = *restored
	return nil
}
