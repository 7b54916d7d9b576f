package wal

import (
	"fmt"
	"math"
	"sync"
)

// The append path is a group commit: Append enqueues a batch and blocks
// until the log's committer goroutine has made it durable, so many
// concurrent producers pay for one fsync per *group* instead of one per
// batch. While one group's fsync is in flight the next group accumulates —
// the classic group-commit pipeline — without weakening what an ack means:
// under SyncEveryBatch a nil return still means "this batch is on stable
// storage".
//
// Group boundaries are aligned to segment boundaries on purpose: the
// committer syncs everything it wrote to the current segment *before*
// rotating to the next one. rotateLocked's best-effort seal sync is only
// safe because acked frames are already durable; a group spanning a
// rotation would launder a seal-sync failure into a false ack, so the
// committer never lets unacked frames cross one.

// pipeReq is one producer's queued batch: the caller blocks on done until
// the committer reports the batch's fate; rec.Seq carries the sequence
// number it was given.
type pipeReq struct {
	rec  Record
	done chan error
}

// commitQueue is the group-commit state: the batches waiting for the next
// group, and the committer's lifetime. Open starts the committer; Close
// stops it.
type commitQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*pipeReq
	stop    bool
	done    chan struct{} // closed when the committer has exited
}

// Append logs one batch and returns its sequence number; rec.Seq is
// ignored. The batch rides the group commit with whatever other batches are
// in flight. Under SyncEveryBatch a nil return means the batch is durable;
// under the other policies it means the batch is in the OS pipeline. A
// non-nil return means the batch must NOT be acknowledged: the segment is
// sealed and a fresh one started, and the failed frame keeps its (now
// skipped) sequence number — it may still surface at replay if the kernel
// flushed it anyway, which is the usual at-least-once caveat on failed
// acks, but it can never shadow a later acked frame. The record's slices
// are not retained past the call.
func (l *Log) Append(rec Record) (uint64, error) {
	if rec.Metric == "" || len(rec.Metric) > 1<<16-1 {
		return 0, fmt.Errorf("wal: metric name length %d outside [1, 65535]", len(rec.Metric))
	}
	if len(rec.Backend) > 1<<8-1 {
		return 0, fmt.Errorf("wal: backend name length %d exceeds 255", len(rec.Backend))
	}
	if rec.Weights != nil && len(rec.Weights) != len(rec.Values) {
		return 0, fmt.Errorf("wal: %d weights for %d values", len(rec.Weights), len(rec.Values))
	}
	if n := frameHeaderLen + payloadLen(&rec); n > maxRecordBytes {
		return 0, fmt.Errorf("wal: %d-byte record exceeds %d-byte frame cap", n, maxRecordBytes)
	}
	// Replay reads a NaN as corruption and ends the segment there, so one
	// acked NaN would lose every later record of its segment.
	for _, lane := range [2][]float64{rec.Values, rec.Weights} {
		for i, v := range lane {
			if math.IsNaN(v) {
				return 0, fmt.Errorf("wal: NaN at element %d has no rank and cannot be logged", i)
			}
		}
	}
	r := &pipeReq{rec: rec, done: make(chan error, 1)}
	q := &l.q
	q.mu.Lock()
	if q.stop {
		q.mu.Unlock()
		return 0, ErrClosed
	}
	q.pending = append(q.pending, r)
	q.cond.Signal()
	q.mu.Unlock()
	err := <-r.done
	return r.rec.Seq, err
}

// runCommitter is the single committer goroutine: it drains whatever
// accumulated while the previous group was being written and fsynced, and
// commits it as the next group. It exits after stopCommitter and once the
// queue is empty.
func (l *Log) runCommitter() {
	q := &l.q
	defer close(q.done)
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.stop {
			q.cond.Wait()
		}
		group := q.pending
		q.pending = nil
		stop := q.stop
		q.mu.Unlock()
		if len(group) > 0 {
			l.commitGroup(group)
		}
		if stop && len(group) == 0 {
			return
		}
	}
}

// stopCommitter stops the committer, letting it drain every queued batch
// first, and rejects later producers with ErrClosed. Safe to call twice.
func (l *Log) stopCommitter() {
	q := &l.q
	q.mu.Lock()
	q.stop = true
	q.cond.Broadcast()
	q.mu.Unlock()
	<-q.done
}

// commitGroup writes and acks one group under l.mu. Frames are written in
// order into the current segment; before a rotation (or at the end of the
// group) everything written so far is fsynced with the error checked, and
// only then acked — so no acked frame ever depends on rotateLocked's
// best-effort seal sync. A failed write or sync fails the affected
// requests, consumes their sequence numbers (their bytes may surface at
// replay anyway — the usual failed-ack caveat), and taints the segment so
// the next run starts fresh.
func (l *Log) commitGroup(group []*pipeReq) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		for _, r := range group {
			r.done <- ErrClosed
		}
		return
	}
	i := 0
	for i < len(group) {
		// written collects this run: frames in the current segment awaiting
		// one shared fsync.
		var written []*pipeReq
		for i < len(group) {
			r := group[i]
			frame := encodeFrame(l.nextSeq, &r.rec)
			if l.f == nil || l.tainted ||
				(l.curSize > segHeaderLen && l.curSize+int64(len(frame)) > l.opt.SegmentBytes) {
				if len(written) > 0 {
					break // sync (and ack) this run before rotating
				}
				if err := l.rotateLocked(); err != nil {
					r.done <- err
					i++
					continue
				}
			}
			n, err := l.f.Write(frame)
			l.curSize += int64(n)
			if err != nil {
				l.tainted = true
				l.nextSeq++
				r.done <- fmt.Errorf("wal: append: %w", err)
				i++
				break // the torn tail ends this run; sync what preceded it
			}
			r.rec.Seq = l.nextSeq
			l.nextSeq++
			written = append(written, r)
			i++
		}
		if len(written) == 0 {
			continue
		}
		if l.opt.Sync == SyncEveryBatch {
			// One checked fsync covers the whole run — even after a later
			// write in the same segment tore: the run's frames precede the
			// torn tail, so replay recovers them intact.
			if err := l.f.Sync(); err != nil {
				l.tainted = true
				serr := fmt.Errorf("wal: sync: %w", err)
				for _, r := range written {
					r.done <- serr
				}
				continue
			}
		}
		for _, r := range written {
			l.curLast = r.rec.Seq
			l.appended++
			r.done <- nil
		}
	}
}
