package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary the benchmark itself
// crosses: a send, an ack, a query. Spans of one operation share Op; a
// child names its cause in Parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// record stores a finished span and returns its id (0 when untraced). A
// span without a parent starts an operation; its children share its id as
// their Op.
func (t *tracer) record(name string, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	op := parent
	if op == 0 {
		op = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample is one /metricsz reading of one daemon.
type sample struct {
	at time.Time
	m  metricsz
}

// sampler polls /metricsz of each storage daemon every interval until
// stopped; stop returns the readings per daemon base URL.
type sampler struct {
	stopCh chan struct{}
	done   chan struct{}
	out    map[string][]sample
}

func startSampler(bases []string, every time.Duration) *sampler {
	s := &sampler{stopCh: make(chan struct{}), done: make(chan struct{}), out: make(map[string][]sample)}
	c := &http.Client{Timeout: 2 * time.Second}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		sampleAll := func() {
			for _, b := range bases {
				if m, err := getMetricsz(c, b); err == nil {
					s.out[b] = append(s.out[b], sample{at: time.Now(), m: m})
				}
			}
		}
		for {
			sampleAll()
			select {
			case <-s.stopCh:
				sampleAll()
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) stop() map[string][]sample {
	close(s.stopCh)
	<-s.done
	return s.out
}
