package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"mrl/internal/serve"
)

// newHTTPClient returns a client holding at most one connection, so each
// load role (writer, querier) is exactly one connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// quantileAnswer is the JSON a node or the coordinator serves for
// GET /quantile.
type quantileAnswer struct {
	Values     []float64 `json:"values"`
	Count      int64     `json:"count"`
	ErrorBound float64   `json:"errorBound"`
	Height     int       `json:"height"`
	Partial    bool      `json:"partial"`
	Error      string    `json:"error"`
}

func query(c *http.Client, base, metric, phis string, windowed bool) (quantileAnswer, error) {
	u := base + "/quantile?metric=" + url.QueryEscape(metric) + "&phi=" + phis
	if windowed {
		u += "&window=true"
	}
	var a quantileAnswer
	resp, err := c.Get(u)
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return a, fmt.Errorf("query %s: %s: %w", metric, resp.Status, err)
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("query %s: %s: %s", metric, resp.Status, a.Error)
	}
	return a, nil
}

type ingestReply struct {
	Accepted int64  `json:"accepted"`
	Error    string `json:"error"`
}

// post sends one ingest body and returns the values the server accepted.
func post(c *http.Client, u, contentType string, body []byte) (int64, error) {
	resp, err := c.Post(u, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var r ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return 0, fmt.Errorf("POST %s: %s: %w", u, resp.Status, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST %s: %s: %s", u, resp.Status, r.Error)
	}
	return r.Accepted, nil
}

// jsonIngestBody is the POST /ingest body for one batch.
func jsonIngestBody(metric string, vs []float64) []byte {
	b := make([]byte, 0, 32+len(metric)+8*len(vs))
	b = append(b, `{"metric":`...)
	b = strconv.AppendQuote(b, metric)
	b = append(b, `,"values":[`...)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, "]}"...)
}

// metricsz mirrors the parts of GET /metricsz the benchmark reads.
type metricsz struct {
	Metrics []struct {
		Name           string `json:"name"`
		Count          int64  `json:"count"`
		ReplayedValues int64  `json:"replayedValues"`
		MemoryElements int64  `json:"memoryElements"`
	} `json:"metrics"`
	QueryCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"queryCache"`
	Apply struct {
		Workers          int     `json:"workers"`
		PendingBatches   uint64  `json:"pendingBatches"`
		AppliedBatches   int64   `json:"appliedBatches"`
		CoalescedBatches int64   `json:"coalescedBatches"`
		ShedBatches      int64   `json:"shedBatches"`
		BlockedEnqueues  int64   `json:"blockedEnqueues"`
		BusySeconds      float64 `json:"busySeconds"`
	} `json:"apply"`
}

func getMetricsz(c *http.Client, base string) (metricsz, error) {
	var m metricsz
	resp, err := c.Get(base + "/metricsz")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("metricsz: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// binBody builds MRLB v2 ingest bodies for the HTTP carriers: one session,
// global sequence numbers, every batch tagged with its metric.
type binBody struct {
	sid uint64
	seq uint64
}

type binBatch struct {
	metric string
	values []float64
}

func (w *binBody) encode(batches []binBatch) []byte {
	buf := serve.AppendBinPrologueV2(nil)
	buf = serve.AppendSessionFrame(buf, w.sid)
	ids := make(map[string]uint32, len(batches))
	for _, b := range batches {
		id, ok := ids[b.metric]
		if !ok {
			id = uint32(len(ids) + 1)
			ids[b.metric] = id
			buf = serve.AppendDictFrame(buf, id, b.metric, "")
		}
		w.seq++
		buf = serve.AppendBatchSeqFrame(buf, id, w.seq, b.values, nil)
	}
	return buf
}

// binConn is the benchmark's own MRLB writer over TCP: one session whose
// sequenced batch frames are pipelined up to a window, with acks read in
// order by a reader goroutine. Every batch carries the time it was due,
// so an ack is timed from the schedule rather than from when the writer
// got around to sending it.
type binConn struct {
	conn net.Conn
	bw   *bufio.Writer
	seq  uint64
	buf  []byte

	inflight chan pendingBatch // buffered to the pipelining window
	readDone chan struct{}

	mu      sync.Mutex
	latency dist // ms from due to ack
	errs    int64
	batches int64
	lastErr error
	onAck   func(p pendingBatch, at time.Time)
}

type pendingBatch struct {
	n    int
	due  time.Time
	sent time.Time
	span uint64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// binWindow is how many batches one binary connection pipelines before it
// waits for acks.
const binWindow = 32

// dialBin opens a v2 session and declares the metrics (ids 1..len).
func dialBin(addr string, sid uint64, metrics []string, window int) (*binConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &binConn{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 64<<10),
		inflight: make(chan pendingBatch, window),
		readDone: make(chan struct{}),
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	c.buf = serve.AppendBinPrologueV2(c.buf[:0])
	c.buf = serve.AppendSessionFrame(c.buf, sid)
	for i, m := range metrics {
		c.buf = serve.AppendDictFrame(c.buf, uint32(i+1), m, "")
	}
	if _, err := c.bw.Write(c.buf); err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	if err := readSessionAck(br); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	go c.readAcks(br)
	return c, nil
}

// readSessionAck consumes the server's sessionAck frame (type 5) and
// requires a fresh session (status ok, high-water mark 0).
func readSessionAck(r io.Reader) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("read sessionAck: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n < 16 || n > 1<<16 {
		return fmt.Errorf("sessionAck: bad payload length %d", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return fmt.Errorf("read sessionAck: %w", err)
	}
	if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
		return fmt.Errorf("sessionAck: CRC mismatch")
	}
	if p[0] != 5 || p[1] != 0 {
		return fmt.Errorf("sessionAck: frame type %d status %d", p[0], p[1])
	}
	if hw := binary.LittleEndian.Uint64(p[8:]); hw != 0 {
		return fmt.Errorf("sessionAck: fresh session reports high water %d", hw)
	}
	return nil
}

// send writes one sequenced batch for metric id, blocking while the
// pipelining window is full.
func (c *binConn) send(id uint32, vs []float64, due time.Time, span uint64) error {
	c.seq++
	c.buf = serve.AppendBatchSeqFrame(c.buf[:0], id, c.seq, vs, nil)
	p := pendingBatch{n: len(vs), due: due, sent: time.Now(), span: span}
	select {
	case c.inflight <- p:
	case <-c.readDone:
		return fmt.Errorf("binary connection closed: %v", c.err())
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.bw.Write(c.buf); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *binConn) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

func (c *binConn) readAcks(br *bufio.Reader) {
	defer close(c.readDone)
	for p := range c.inflight {
		_ = c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		ack, err := serve.ReadBinAck(br)
		now := time.Now()
		c.mu.Lock()
		c.batches++
		switch {
		case err != nil:
			c.errs++
			c.lastErr = err
		case !ack.OK() || int(ack.Accepted) != p.n:
			c.errs++
			c.lastErr = fmt.Errorf("batch refused: status %d accepted %d of %d: %s", ack.Status, ack.Accepted, p.n, ack.Msg)
		default:
			c.latency.addAt(now, opLatency(p.due, now))
		}
		c.mu.Unlock()
		if err != nil {
			return
		}
		if c.onAck != nil {
			c.onAck(p, now)
		}
	}
}

// finish waits for every outstanding ack and closes the connection.
func (c *binConn) finish() error {
	close(c.inflight)
	<-c.readDone
	c.conn.Close()
	return c.err()
}
