// Package batch implements the coalescer's window state machine: the
// pure decision logic for when an adaptive batch window must flush and
// the bookkeeping that feeds the symbiosys_batch_* metrics. It is
// deliberately free of RPC, ULT, and clock dependencies — margo owns
// the timers and the vectored forwards; this package answers "is this
// window due, and why?" and keeps the occupancy/coalesce statistics the
// paper's methodology needs to attribute the C4 batching effect.
package batch

import (
	"sync/atomic"
	"time"
)

// Reason labels why a window flushed. The distribution of reasons is a
// primary tuning signal: ReasonFull-dominated flushes mean the window is
// too small, ReasonWindow-dominated ones mean the offered load is too
// thin to coalesce.
type Reason uint8

// Flush reasons.
const (
	// ReasonNone means the window is not due.
	ReasonNone Reason = iota
	// ReasonFull: the window reached Policy.MaxOps members.
	ReasonFull
	// ReasonBytes: the window reached MaxBytes encoded bytes.
	ReasonBytes
	// ReasonWindow: the adaptive delay elapsed with the window open.
	ReasonWindow
	// ReasonUrgent: a member's deadline forced an early flush.
	ReasonUrgent
	// ReasonDrain: the instance is draining; windows flush immediately.
	ReasonDrain
	numReasons
)

// String returns the short label used in metrics and reports.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonFull:
		return "full"
	case ReasonBytes:
		return "bytes"
	case ReasonWindow:
		return "window"
	case ReasonUrgent:
		return "urgent"
	case ReasonDrain:
		return "drain"
	default:
		return "unknown"
	}
}

// MaxBytes flushes a window when its encoded payload reaches this many
// bytes. It also bounds the vectored frame so batch frames stay on the
// eager path.
const MaxBytes = 128 << 10

// Policy tunes one coalescer. The zero value is usable: WithDefaults
// fills the paper-informed defaults (window 64 reproduces HEPnOS C1;
// window 1 degenerates to the C4 misconfiguration).
type Policy struct {
	// MaxOps flushes a window when it holds this many members.
	// Default 64.
	MaxOps int
	// MaxDelay is the longest a member waits for companions before the
	// window flushes anyway. Default 200µs.
	MaxDelay time.Duration
}

// WithDefaults returns the policy with unset fields filled in.
func (p Policy) WithDefaults() Policy {
	if p.MaxOps <= 0 {
		p.MaxOps = 64
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 200 * time.Microsecond
	}
	return p
}

// Window tracks one open batch window. It is not synchronized; the
// owner (margo's coalescer) serializes access under its own lock.
type Window struct {
	ops      int
	bytes    int
	openedAt int64 // unix nanos of the first Add
	// minDeadline is the earliest member deadline (unix nanos);
	// zero when no member carries a deadline.
	minDeadline int64
}

// Open resets the window for a new batch starting at now.
func (w *Window) Open(now int64) {
	w.ops, w.bytes, w.openedAt, w.minDeadline = 0, 0, now, 0
}

// Add records one member with its encoded size and absolute deadline
// (zero for none).
func (w *Window) Add(nbytes int, deadlineNanos int64) {
	w.ops++
	w.bytes += nbytes
	if deadlineNanos != 0 && (w.minDeadline == 0 || deadlineNanos < w.minDeadline) {
		w.minDeadline = deadlineNanos
	}
}

// Due reports whether the window must flush immediately after an Add,
// based on size thresholds alone (time-based flushes come from FlushAt).
func (p Policy) Due(w *Window) Reason {
	if w.ops >= p.MaxOps {
		return ReasonFull
	}
	if w.bytes >= MaxBytes {
		return ReasonBytes
	}
	return ReasonNone
}

// FlushAt returns the instant the window's timer must fire and the
// reason that firing will carry: the adaptive window close, pulled
// earlier when a member's deadline would otherwise expire while the
// batch sits in the window. Deadlines already past clamp to "now"
// (the caller flushes immediately).
func (p Policy) FlushAt(w *Window) (int64, Reason) {
	at := w.openedAt + int64(p.MaxDelay)
	reason := ReasonWindow
	if w.minDeadline != 0 {
		// Leave half the remaining window as headroom for the wire
		// round-trip: flushing exactly at the deadline guarantees an
		// expired member.
		urgent := w.minDeadline - int64(p.MaxDelay)/2
		if urgent < at {
			at, reason = urgent, ReasonUrgent
		}
	}
	return at, reason
}

// Stats accumulates flush accounting across a coalescer's lifetime.
// All fields are updated atomically so a telemetry scrape reads them
// without coordinating with the flush path.
type Stats struct {
	flushes   atomic.Uint64
	ops       atomic.Uint64
	bytes     atomic.Uint64
	byReason  [numReasons]atomic.Uint64
	lastOccup atomic.Uint64
	occupHWM  atomic.Uint64
	retries   atomic.Uint64
}

// RecordFlush accounts one flushed window.
func (s *Stats) RecordFlush(reason Reason, ops, bytes int) {
	s.flushes.Add(1)
	s.ops.Add(uint64(ops))
	s.bytes.Add(uint64(bytes))
	if reason < numReasons {
		s.byReason[reason].Add(1)
	}
	occ := uint64(ops)
	s.lastOccup.Store(occ)
	for {
		hwm := s.occupHWM.Load()
		if occ <= hwm || s.occupHWM.CompareAndSwap(hwm, occ) {
			break
		}
	}
}

// RecordRetry accounts one batch-level retry attempt.
func (s *Stats) RecordRetry() { s.retries.Add(1) }

// Flushes reports the number of windows flushed.
func (s *Stats) Flushes() uint64 { return s.flushes.Load() }

// Ops reports the total members coalesced.
func (s *Stats) Ops() uint64 { return s.ops.Load() }

// Bytes reports the total encoded payload bytes flushed.
func (s *Stats) Bytes() uint64 { return s.bytes.Load() }

// ByReason reports the flush count for one reason.
func (s *Stats) ByReason(r Reason) uint64 {
	if r >= numReasons {
		return 0
	}
	return s.byReason[r].Load()
}

// Retries reports batch-level retry attempts.
func (s *Stats) Retries() uint64 { return s.retries.Load() }

// LastOccupancy reports the member count of the most recent flush.
func (s *Stats) LastOccupancy() uint64 { return s.lastOccup.Load() }

// OccupancyHWM reports the largest window ever flushed.
func (s *Stats) OccupancyHWM() uint64 { return s.occupHWM.Load() }

// CoalesceRatio reports mean ops per flush — the factor by which
// batching divided the per-op RPC overhead (1.0 means no coalescing).
func (s *Stats) CoalesceRatio() float64 {
	f := s.flushes.Load()
	if f == 0 {
		return 0
	}
	return float64(s.ops.Load()) / float64(f)
}

// Reasons enumerates every flush reason with its label, for reports.
func Reasons() []Reason {
	return []Reason{ReasonFull, ReasonBytes, ReasonWindow, ReasonUrgent, ReasonDrain}
}
