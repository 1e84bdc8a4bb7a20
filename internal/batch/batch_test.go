package batch

import (
	"testing"
	"time"
)

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.WithDefaults()
	if p.MaxOps != 64 || p.MaxDelay != 200*time.Microsecond {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	keep := Policy{MaxOps: 8, MaxDelay: time.Millisecond}.WithDefaults()
	if keep.MaxOps != 8 || keep.MaxDelay != time.Millisecond {
		t.Fatalf("WithDefaults overwrote explicit values: %+v", keep)
	}
}

func TestWindowDueFull(t *testing.T) {
	p := Policy{MaxOps: 3, MaxDelay: time.Second}
	var w Window
	w.Open(100)
	for i := 0; i < 2; i++ {
		w.Add(10, 0)
		if r := p.Due(&w); r != ReasonNone {
			t.Fatalf("window due %v after %d ops", r, i+1)
		}
	}
	w.Add(10, 0)
	if r := p.Due(&w); r != ReasonFull {
		t.Fatalf("want ReasonFull, got %v", r)
	}
}

func TestWindowDueBytes(t *testing.T) {
	p := Policy{MaxOps: 100, MaxDelay: time.Second}
	var w Window
	w.Open(0)
	w.Add(MaxBytes/2, 0)
	if r := p.Due(&w); r != ReasonNone {
		t.Fatalf("premature flush: %v", r)
	}
	w.Add(MaxBytes/2, 0)
	if r := p.Due(&w); r != ReasonBytes {
		t.Fatalf("want ReasonBytes, got %v", r)
	}
}

func TestFlushAtWindow(t *testing.T) {
	p := Policy{MaxOps: 100, MaxDelay: time.Millisecond}
	var w Window
	w.Open(1000)
	w.Add(1, 0)
	at, reason := p.FlushAt(&w)
	if at != 1000+int64(time.Millisecond) || reason != ReasonWindow {
		t.Fatalf("FlushAt = %d, %v", at, reason)
	}
}

func TestFlushAtUrgent(t *testing.T) {
	p := Policy{MaxOps: 100, MaxDelay: time.Millisecond}
	var w Window
	w.Open(1000)
	// A member whose deadline lands inside the window pulls the flush
	// earlier, leaving half the window as round-trip headroom.
	deadline := int64(1000 + int64(time.Millisecond)/4)
	w.Add(1, deadline)
	at, reason := p.FlushAt(&w)
	if reason != ReasonUrgent {
		t.Fatalf("want ReasonUrgent, got %v at %d", reason, at)
	}
	if at != deadline-int64(p.MaxDelay)/2 {
		t.Fatalf("urgent FlushAt = %d, want %d", at, deadline-int64(p.MaxDelay)/2)
	}
	// A deadline far beyond the window leaves the normal close.
	w.Open(1000)
	w.Add(1, 1000+10*int64(time.Millisecond))
	if _, reason := p.FlushAt(&w); reason != ReasonWindow {
		t.Fatalf("distant deadline should not force urgency, got %v", reason)
	}
}

func TestMinDeadlineTracksEarliest(t *testing.T) {
	var w Window
	w.Open(0)
	w.Add(1, 500)
	w.Add(1, 300)
	w.Add(1, 0) // no deadline leaves the minimum alone
	w.Add(1, 900)
	if w.minDeadline != 300 {
		t.Fatalf("MinDeadline = %d, want 300", w.minDeadline)
	}
}

func TestStatsAccounting(t *testing.T) {
	var s Stats
	s.RecordFlush(ReasonFull, 64, 4096)
	s.RecordFlush(ReasonWindow, 2, 128)
	s.RecordFlush(ReasonFull, 32, 2048)
	s.RecordRetry()
	if s.Flushes() != 3 || s.Ops() != 98 || s.Bytes() != 6272 {
		t.Fatalf("totals: flushes=%d ops=%d bytes=%d", s.Flushes(), s.Ops(), s.Bytes())
	}
	if s.ByReason(ReasonFull) != 2 || s.ByReason(ReasonWindow) != 1 || s.ByReason(ReasonUrgent) != 0 {
		t.Fatalf("by-reason counts wrong")
	}
	if s.LastOccupancy() != 32 || s.OccupancyHWM() != 64 {
		t.Fatalf("occupancy: last=%d hwm=%d", s.LastOccupancy(), s.OccupancyHWM())
	}
	if got := s.CoalesceRatio(); got < 32.0 || got > 33.0 {
		t.Fatalf("CoalesceRatio = %v, want 98/3", got)
	}
	if s.Retries() != 1 {
		t.Fatalf("Retries = %d", s.Retries())
	}
}

func TestReasonStrings(t *testing.T) {
	for _, r := range Reasons() {
		if r.String() == "unknown" || r.String() == "none" {
			t.Fatalf("reason %d has no label", r)
		}
	}
	if Reason(200).String() != "unknown" {
		t.Fatalf("out-of-range reason should be unknown")
	}
}

// TestWindowAddAllocs pins the window bookkeeping itself to zero
// allocations: the coalescer calls Add for every forwarded op.
func TestWindowAddAllocs(t *testing.T) {
	p := Policy{}.WithDefaults()
	var w Window
	w.Open(0)
	n := testing.AllocsPerRun(1000, func() {
		w.Add(64, 0)
		if p.Due(&w) != ReasonNone {
			w.Open(0)
		}
	})
	if n != 0 {
		t.Fatalf("Window.Add allocates %v/op, want 0", n)
	}
}
