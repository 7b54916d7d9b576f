package main

import (
	"runtime"
	"time"
)

// schedule is an open-loop send plan: operation i is due at start +
// i*interval regardless of how earlier operations fared, so a stalled
// server meets a queue, not a politely slowed client.
type schedule struct {
	start    time.Time
	interval time.Duration
	n        int
}

// newSchedule plans n operations at rate per second from start.
func newSchedule(start time.Time, rate float64, n int) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / rate), n: n}
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// waitDue sleeps until operation i is due. When the generator was free
// before the due time (slept), it returns how late it woke: the
// generator's own lateness. When the due time had already passed because
// the writer was still blocked on the server, slept is false: that delay
// is the server's queueing and belongs in the operation's latency.
func (s schedule) waitDue(i int) (late time.Duration, slept bool) {
	d := s.due(i)
	wait := time.Until(d)
	if wait <= 0 {
		return 0, false
	}
	// A timer sleep overshoots by ~0.5ms at the median on a small VM, which
	// would swamp sub-millisecond latencies timed from the due time; sleep
	// short of it and yield-spin the rest.
	if wait > spinLead {
		time.Sleep(wait - spinLead)
	}
	for time.Now().Before(d) {
		runtime.Gosched()
	}
	return lateness(d, time.Now()), true
}

// spinLead is how long before a due time the generator stops sleeping and
// spins: above the timer's usual overshoot, so most sends leave on time.
const spinLead = 800 * time.Microsecond

// lateness is how far after its due time an operation was sent.
func lateness(due, sent time.Time) time.Duration {
	if l := sent.Sub(due); l > 0 {
		return l
	}
	return 0
}

// opLatency is an open-loop operation's latency: from when it was due to
// when its ack arrived, so time spent queued behind a stalled predecessor
// (or a late generator) counts against the server's answer.
func opLatency(due, acked time.Time) time.Duration { return acked.Sub(due) }
