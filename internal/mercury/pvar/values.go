package pvar

import (
	"sync/atomic"
	"time"
)

// The types below are the write-side primitives an exporting library
// uses to maintain PVAR values cheaply (lock-free) on its fast path.

// Counter backs a COUNTER-class PVAR: monotonically increasing.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load samples the counter.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Level backs a LEVEL- or SIZE-class PVAR: a gauge that can rise and
// fall, with an attached high watermark.
type Level struct {
	v   atomic.Int64
	hwm atomic.Int64
}

// Set stores an absolute value.
func (l *Level) Set(v int64) {
	l.v.Store(v)
	l.raise(v)
}

// Add adjusts the gauge by delta and returns the new value.
func (l *Level) Add(delta int64) int64 {
	v := l.v.Add(delta)
	l.raise(v)
	return v
}

func (l *Level) raise(v int64) {
	for {
		cur := l.hwm.Load()
		if v <= cur || l.hwm.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load samples the gauge.
func (l *Level) Load() int64 { return l.v.Load() }

// HighWatermark samples the largest value ever stored.
func (l *Level) HighWatermark() int64 { return l.hwm.Load() }

// Timer backs a TIMER-class PVAR bound to a handle: one measured
// interval, stored as nanoseconds. The zero Timer reads as zero.
type Timer struct {
	start time.Time
	ns    atomic.Uint64
}

// Start marks the beginning of the interval.
func (t *Timer) Start() { t.start = time.Now() }

// Stop closes the interval, accumulating elapsed nanoseconds.
func (t *Timer) Stop() {
	if !t.start.IsZero() {
		t.ns.Add(uint64(time.Since(t.start)))
		t.start = time.Time{}
	}
}

// SetDuration records an externally measured interval.
func (t *Timer) SetDuration(d time.Duration) { t.ns.Store(uint64(d)) }

// Nanos samples the accumulated interval in nanoseconds.
func (t *Timer) Nanos() uint64 { return t.ns.Load() }
