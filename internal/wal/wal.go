// Package wal is a segmented, CRC32C-framed write-ahead log for ingest
// batches, the durability floor under the serving layer: the paper's
// framework is single-pass, so an observation lost in a crash can never be
// re-read — a batch must not be acknowledged until the log says it is safe.
//
// Each record carries one batch — metric, backend, values, optional
// weights and the binary ingest client's session pair — with a
// monotonically increasing sequence number. Append is a group commit under
// one of three sync policies — fsync every batch (acked ⇒ durable), fsync
// on an interval (acked batches may lose up to one interval), or never (the
// OS decides) — and rotates to a fresh segment once the current one
// exceeds the configured size. Recovery reads the segments in order, verifies each
// frame's CRC, and truncates at the first torn or corrupt frame of a
// segment, so a crash mid-write costs at most the un-acked tail.
// Checkpoints record the sequence number they cover; replay applies only
// the suffix, and sealed segments at or below the covered sequence are
// pruned.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"

	"mrl/internal/faultfs"
)

const (
	segMagic   = "MRLW"
	segVersion = 2
	// segHeaderLen is magic + version.
	segHeaderLen = 5
	// frameHeaderLen is payload length u32 + CRC32C u32.
	frameHeaderLen = 8
	// Record payload layout (little endian), the only one a version-2
	// segment holds:
	//
	//	seq u64 | flags u8 | backendLen u8 | backend | nameLen u16 | name
	//	[sid u64 | cseq u64]   when flagSession
	//	count u32 | values f64 × count
	//	[weights f64 × count]  when flagWeights
	//
	// minPayload is the fixed part: seq + flags + backendLen + nameLen +
	// count.
	minPayload = 16
	// flagSession marks a record carrying the binary ingest client's
	// (session id, per-session seq) pair. Replay threads the pair back so
	// the serving layer can rebuild its dedup high-water marks — and skip a
	// record whose (session, seq) it has already applied, which happens when
	// a failed append's bytes reached the disk anyway and the client's retry
	// was logged again.
	flagSession = 1 << 0
	// flagWeights marks a record whose values are followed by a lane of
	// per-value weights, one per value.
	flagWeights = 1 << 1
	// maxRecordBytes bounds one framed payload; anything larger in a
	// segment is corruption, not data.
	maxRecordBytes = 64 << 20

	// DefaultSegmentBytes is the rotation threshold when Options leaves it
	// zero.
	DefaultSegmentBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends against a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrSegmentVersion is returned by Open and Replay for a segment whose
// header is complete and carries the segment magic but a version other than
// the one this package writes. Such a segment is not torn: its records are
// real and this build cannot read them, so skipping it would silently drop
// acknowledged data.
var ErrSegmentVersion = errors.New("wal: unsupported segment version")

// SyncPolicy selects when appended frames are fsynced, i.e. what an ack
// means.
type SyncPolicy int

const (
	// SyncEveryBatch fsyncs before Append returns: an acked batch is
	// durable. The default, and the only policy under which the crash
	// harness's zero-loss invariant holds.
	SyncEveryBatch SyncPolicy = iota
	// SyncInterval leaves fsync to a periodic Sync call: acked batches may
	// lose up to one interval on a crash.
	SyncInterval
	// SyncOff never fsyncs: the OS flushes whenever it pleases.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "every-batch"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "every-batch":
		return SyncEveryBatch, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want every-batch, interval, or off)", s)
	}
}

// Options configures a Log.
type Options struct {
	// FS is the filesystem seam; nil means the real filesystem.
	FS faultfs.FS
	// SegmentBytes is the rotation threshold; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the ack durability policy.
	Sync SyncPolicy
	// LastKnownSeq is a floor for sequence allocation: Open never hands out
	// a sequence number at or below it, even when no segment on disk records
	// it. A checkpoint that covers (and prunes) every segment leaves the
	// directory empty while its "covered through seq N" claim lives on in the
	// checkpoint file; reusing those numbers would make the next recovery
	// skip fresh records as already covered. Callers restoring from a
	// checkpoint must pass its covered sequence number here.
	LastKnownSeq uint64
}

// sealedSeg is one closed segment, remembered for pruning.
type sealedSeg struct {
	index   int
	path    string
	lastSeq uint64 // 0 when the segment holds no valid frames
}

// Log is the writer. All methods are safe for concurrent use.
type Log struct {
	fs  faultfs.FS
	dir string
	opt Options

	mu       sync.Mutex
	f        faultfs.File
	curIndex int
	curPath  string
	curSize  int64
	curLast  uint64
	nextSeq  uint64
	sealed   []sealedSeg
	// tainted marks the current segment's tail as suspect after a failed
	// write or sync: the next append seals it (without syncing the garbage
	// tail) and starts a fresh segment, so un-acked torn frames can never
	// shadow later acked ones at replay.
	tainted  bool
	closed   bool
	appended int64

	// q is the group-commit queue Append feeds (see pipeline.go); it has
	// its own lock, so producers enqueue while a group holds mu.
	q commitQueue
}

// Open scans dir for existing segments (tolerating torn tails exactly like
// Replay) to find the last valid sequence number, then starts a fresh
// segment for new appends. Existing segments are left in place until a
// checkpoint prunes them.
func Open(dir string, opt Options) (*Log, error) {
	if opt.FS == nil {
		opt.FS = faultfs.OS{}
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(opt.FS, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: opt.FS, dir: dir, opt: opt, nextSeq: 1}
	var lastSeen uint64
	for _, seg := range segs {
		sc, err := readSegment(opt.FS, seg.path, math.MaxUint64, &lastSeen, nil)
		if err != nil {
			return nil, err
		}
		l.sealed = append(l.sealed, sealedSeg{index: seg.index, path: seg.path, lastSeq: sc.lastSeq})
		l.curIndex = seg.index
	}
	if lastSeen < opt.LastKnownSeq {
		lastSeen = opt.LastKnownSeq
	}
	l.nextSeq = lastSeen + 1
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.rotateLocked(); err != nil {
		return nil, err
	}
	l.q.cond = sync.NewCond(&l.q.mu)
	l.q.done = make(chan struct{})
	go l.runCommitter()
	return l, nil
}

func segName(index int) string { return fmt.Sprintf("wal-%08d.seg", index) }

// rotateLocked seals the current segment (syncing its tail unless it is
// tainted — a tainted tail holds only frames that were never acked — or the
// policy is SyncOff) and opens the next one. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if !l.tainted && l.opt.Sync != SyncOff {
			// Best effort: frames acked under SyncEveryBatch are already
			// durable; under the relaxed policies a failure here is within
			// the documented loss window.
			_ = l.f.Sync()
		}
		_ = l.f.Close()
		l.sealed = append(l.sealed, sealedSeg{index: l.curIndex, path: l.curPath, lastSeq: l.curLast})
		l.f = nil
	}
	idx := l.curIndex + 1
	path := filepath.Join(l.dir, segName(idx))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.curIndex = idx // do not reuse an index we may have half-created
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = append(hdr, segVersion)
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		l.curIndex = idx
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if l.opt.Sync != SyncOff {
		// Make the segment itself durable (content header + dir entry);
		// without this an interval-synced file could vanish whole in a
		// crash even after its content was fsynced.
		if err := f.Sync(); err != nil {
			_ = f.Close()
			l.curIndex = idx
			return fmt.Errorf("wal: segment header sync: %w", err)
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			_ = f.Close()
			l.curIndex = idx
			return fmt.Errorf("wal: segment dir sync: %w", err)
		}
	}
	l.f = f
	l.curIndex = idx
	l.curPath = path
	l.curSize = segHeaderLen
	l.curLast = 0
	l.tainted = false
	return nil
}

// payloadLen is the encoded payload size of rec.
func payloadLen(rec *Record) int {
	n := minPayload + len(rec.Backend) + len(rec.Metric) + 8*(len(rec.Values)+len(rec.Weights))
	if rec.Session != 0 {
		n += 16
	}
	return n
}

// encodeFrame builds one framed record for seq.
func encodeFrame(seq uint64, rec *Record) []byte {
	var flags byte
	if rec.Session != 0 {
		flags |= flagSession
	}
	if rec.Weights != nil {
		flags |= flagWeights
	}
	plen := payloadLen(rec)
	buf := make([]byte, frameHeaderLen+plen)
	p := buf[frameHeaderLen:]
	binary.LittleEndian.PutUint64(p[0:], seq)
	p[8] = flags
	p[9] = byte(len(rec.Backend))
	off := 10 + copy(p[10:], rec.Backend)
	binary.LittleEndian.PutUint16(p[off:], uint16(len(rec.Metric)))
	off += 2 + copy(p[off+2:], rec.Metric)
	if rec.Session != 0 {
		binary.LittleEndian.PutUint64(p[off:], rec.Session)
		binary.LittleEndian.PutUint64(p[off+8:], rec.SessionSeq)
		off += 16
	}
	binary.LittleEndian.PutUint32(p[off:], uint32(len(rec.Values)))
	off += 4
	for _, lane := range [2][]float64{rec.Values, rec.Weights} {
		for _, v := range lane {
			binary.LittleEndian.PutUint64(p[off:], math.Float64bits(v))
			off += 8
		}
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(plen))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(p, castagnoli))
	return buf
}

// Sync flushes the current segment to stable storage — the periodic call
// under SyncInterval, and the health probe the serving layer uses to decide
// whether a degraded log has recovered. On a tainted log it attempts the
// rotation to a fresh segment instead, restoring writability.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f == nil || l.tainted {
		return l.rotateLocked()
	}
	if err := l.f.Sync(); err != nil {
		l.tainted = true
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// LastSeq returns the sequence number of the last successfully appended
// record, 0 if none.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Prune removes sealed segments whose every record is covered (sequence
// number at or below covered) by a checkpoint, returning how many were
// removed. The live segment is never pruned.
func (l *Log) Prune(covered uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	var firstErr error
	keep := l.sealed[:0]
	for _, s := range l.sealed {
		if s.lastSeq > covered {
			keep = append(keep, s)
			continue
		}
		if err := l.fs.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: pruning %s: %w", s.path, err)
			}
			keep = append(keep, s)
			continue
		}
		removed++
	}
	l.sealed = keep
	if removed > 0 && firstErr == nil {
		if err := l.fs.SyncDir(l.dir); err != nil {
			firstErr = fmt.Errorf("wal: pruning dir sync: %w", err)
		}
	}
	return removed, firstErr
}

// Close seals the current segment. Idempotent. The committer is drained
// first — queued batches are committed (or failed) before the segment
// seals — and later Append calls get ErrClosed.
func (l *Log) Close() error {
	l.stopCommitter()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	var err error
	if !l.tainted && l.opt.Sync != SyncOff {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Stats is the observability view of a Log.
type Stats struct {
	// LastSeq is the sequence number of the last acked record.
	LastSeq uint64 `json:"lastSeq"`
	// Segments counts segment files currently on disk (sealed + live).
	Segments int `json:"segments"`
	// Appended counts records acked in this process's lifetime.
	Appended int64 `json:"appended"`
	// SyncPolicy names the ack durability policy.
	SyncPolicy string `json:"syncPolicy"`
}

// Stats returns the current observability counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.sealed)
	if l.f != nil {
		n++
	}
	return Stats{
		LastSeq:    l.nextSeq - 1,
		Segments:   n,
		Appended:   l.appended,
		SyncPolicy: l.opt.Sync.String(),
	}
}
