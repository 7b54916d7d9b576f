package wal

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"mrl/internal/faultfs"
)

// FuzzWALReplay drives recovery with two inputs at once: a well-formed log
// built from the fuzz data that then gets one byte corrupted at a derived
// position, and the raw fuzz bytes dropped in as a segment file. The log
// mixes every record shape the serving layer writes — plain, sessioned,
// weighted, and on a non-default backend — and a clean replay must hand
// back each record's backend, weights and session pair unchanged. In both
// shapes Replay must recover or stop cleanly — never panic, never invent
// records (everything replayed matches something written, in order), and
// never report more than was appended. The one permitted failure is
// ErrSegmentVersion, and only for a segment whose first bytes are the magic
// followed by a version other than the current one.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, uint32(0), byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(9), byte(0xff))
	f.Add([]byte("MRLW\x01garbage that is not a frame"), uint32(20), byte(1))
	f.Add([]byte{250, 250, 250, 250}, uint32(40), byte(0x80))
	f.Add([]byte("MRLW\x02garbage that is not a frame"), uint32(4), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, corruptPos uint32, flip byte) {
		// --- Shape 1: valid log, one flipped byte. ---
		mem := faultfs.NewMem()
		l, err := Open("/wal", Options{FS: mem, SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		var wrote []Record
		for i, b := range data {
			if len(wrote) >= 32 {
				break
			}
			rec := Record{Metric: string(rune('a' + b%3)), Backend: "mrl", Values: make([]float64, int(b)%5)}
			for j := range rec.Values {
				rec.Values[j] = float64(i*7 + j)
			}
			switch b / 5 % 4 {
			case 1:
				rec.Session, rec.SessionSeq = uint64(b)+1, uint64(i)+1
			case 2:
				rec.Backend, rec.Weights = "weighted", make([]float64, len(rec.Values))
				for j := range rec.Weights {
					rec.Weights[j] = float64(j) + 0.5
				}
			case 3:
				rec.Backend = "kll"
			}
			seq, err := l.Append(rec)
			if err != nil {
				t.Fatalf("append on clean fs: %v", err)
			}
			rec.Seq = seq
			wrote = append(wrote, rec)
		}
		l.Close()

		segs, err := listSegments(mem, "/wal")
		if err != nil {
			t.Fatal(err)
		}
		versionHit := false
		if flip != 0 && len(segs) > 0 {
			seg := segs[int(corruptPos)%len(segs)]
			blob, err := mem.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			if len(blob) > 0 {
				pos := int(corruptPos) % len(blob)
				blob[pos] ^= flip
				versionHit = pos == segHeaderLen-1
				mem.WriteFile(seg.path, blob)
			}
		}
		checkReplay(t, mem, wrote, flip == 0, versionHit)

		// --- Shape 2: raw fuzz bytes as the one and only segment. ---
		raw := faultfs.NewMem()
		raw.MkdirAll("/wal", 0o755)
		raw.WriteFile("/wal/wal-00000000.seg", data)
		foreign := len(data) >= segHeaderLen && string(data[:len(segMagic)]) == segMagic && data[len(segMagic)] != segVersion
		checkReplay(t, raw, nil, false, foreign)
	})
}

// checkReplay replays everything under /wal and asserts the output is a
// subsequence of wrote (when known) — all of it when clean — with strictly
// increasing seqs, sane values, and consistent stats. versionErr says the
// replay must fail with ErrSegmentVersion instead.
func checkReplay(t *testing.T, fsys faultfs.FS, wrote []Record, clean, versionErr bool) {
	t.Helper()
	bySeq := make(map[uint64]int, len(wrote))
	for i, w := range wrote {
		bySeq[w.Seq] = i
	}
	var last uint64
	var replayed int
	st, err := Replay(fsys, "/wal", 0, func(r Record) error {
		replayed++
		if r.Seq <= last {
			t.Fatalf("seq not strictly increasing: %d after %d", r.Seq, last)
		}
		last = r.Seq
		for _, v := range append(r.Values, r.Weights...) {
			if math.IsNaN(v) {
				t.Fatalf("replay delivered NaN at seq %d", r.Seq)
			}
		}
		if wrote != nil {
			i, ok := bySeq[r.Seq]
			if !ok {
				t.Fatalf("replay invented seq %d", r.Seq)
			}
			if w := wrote[i]; !reflect.DeepEqual(r, w) {
				t.Fatalf("seq %d: replayed %+v, wrote %+v", r.Seq, r, w)
			}
		}
		return nil
	})
	if versionErr {
		if !errors.Is(err, ErrSegmentVersion) {
			t.Fatalf("foreign segment version: err %v, want ErrSegmentVersion", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("replay on in-memory fs: %v", err)
	}
	if st.Replayed != replayed {
		t.Fatalf("stats say %d replayed, callback saw %d", st.Replayed, replayed)
	}
	if wrote != nil && st.Replayed > len(wrote) {
		t.Fatalf("replayed %d > written %d", st.Replayed, len(wrote))
	}
	if clean && st.Replayed != len(wrote) {
		t.Fatalf("clean log replayed %d of %d records", st.Replayed, len(wrote))
	}
	if st.LastSeq < last {
		t.Fatalf("LastSeq %d < last delivered %d", st.LastSeq, last)
	}
}
