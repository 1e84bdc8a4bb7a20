package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestHistBucketBoundsContiguous checks that the bucket ranges tile
// [0, MaxUint64] with no gaps or overlaps and that HistBucket agrees
// with the bounds at and just inside every boundary.
func TestHistBucketBoundsContiguous(t *testing.T) {
	var prevHi uint64
	for i := 0; i < HistBuckets; i++ {
		lo, hi := HistBucketBounds(i)
		if lo >= hi {
			t.Fatalf("bucket %d: lo %d >= hi %d", i, lo, hi)
		}
		if lo != prevHi {
			t.Fatalf("bucket %d: lo %d != previous hi %d (gap or overlap)", i, lo, prevHi)
		}
		if got := HistBucket(lo); got != i {
			t.Errorf("HistBucket(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := HistBucket(hi - 1); got != i {
			t.Errorf("HistBucket(hi-1=%d) = %d, want %d", hi-1, got, i)
		}
		prevHi = hi
	}
	if prevHi != math.MaxUint64 {
		t.Fatalf("last bucket hi = %d, want MaxUint64", prevHi)
	}
}

// TestHistBucketTwoPerOctave checks the advertised resolution: within
// the tiled range every bucket spans at most half an octave (hi <= 1.5*lo).
func TestHistBucketTwoPerOctave(t *testing.T) {
	for i := 1; i < HistBuckets-1; i++ {
		lo, hi := HistBucketBounds(i)
		if hi*2 > lo*3 { // hi > 1.5*lo
			t.Errorf("bucket %d [%d,%d) wider than half an octave", i, lo, hi)
		}
	}
}

// TestHistBucketMonotone checks bucket assignment is monotone in the
// latency for random pairs.
func TestHistBucketMonotone(t *testing.T) {
	prop := func(a, b uint64) bool {
		if a > b {
			a, b = b, a
		}
		return HistBucket(a) <= HistBucket(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCallStatsMergeAssociative checks (a⊕b)⊕c == a⊕(b⊕c) over full
// CallStats (counts, extrema, components, histogram) — the property
// that makes shard merging and cross-process profile aggregation
// order-independent.
func TestCallStatsMergeAssociative(t *testing.T) {
	build := func(vals []uint32) CallStats {
		var s CallStats
		var comps [NumComponents]uint64
		for _, v := range vals {
			comps[int(v)%int(NumComponents)] = uint64(v)
			s.record(time.Duration(v), &comps)
		}
		return s
	}
	prop := func(a, b, c []uint32) bool {
		sa, sb, sc := build(a), build(b), build(c)

		left := sa // (a⊕b)⊕c
		left.Merge(&sb)
		left.Merge(&sc)

		bc := sb // a⊕(b⊕c)
		bc.Merge(&sc)
		right := sa
		right.Merge(&bc)

		return left == right
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileWithinBucketWidth checks the quantile estimator's error
// bound: for a batch of known latencies, every estimated percentile lies
// within the width of the bucket holding the true order statistic.
func TestPercentileWithinBucketWidth(t *testing.T) {
	var s CallStats
	lats := []time.Duration{
		2 * time.Microsecond, 5 * time.Microsecond, 9 * time.Microsecond,
		40 * time.Microsecond, 200 * time.Microsecond, 900 * time.Microsecond,
		3 * time.Millisecond, 3500 * time.Microsecond, 9 * time.Millisecond,
		42 * time.Millisecond,
	}
	for _, l := range lats {
		s.record(l, nil)
	}
	for _, p := range []float64{50, 90, 95, 99} {
		est := s.Percentile(p)
		idx := int(p/100*float64(len(lats))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		truth := lats[idx]
		lo, hi := HistBucketBounds(HistBucket(uint64(truth)))
		width := time.Duration(hi - lo)
		diff := est - truth
		if diff < 0 {
			diff = -diff
		}
		if diff > width {
			t.Errorf("p%v = %v, true order stat %v, off by %v > bucket width %v",
				p, est, truth, diff, width)
		}
	}
}

// failWriter fails after n successful writes.
type failWriter struct {
	n   int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestJSONLSinkStickyErrors checks that write failures surface from
// Flush and are counted in the Profiler's sink_errors stat.
func TestJSONLSinkStickyErrors(t *testing.T) {
	boom := errors.New("disk full")
	sink := NewJSONLTraceSink(&failWriter{n: 0, err: boom})
	p := newProfiler("sticky/p", StageFull, 1, 16)
	p.AddTraceSink(sink)

	// Small events flow into bufio's buffer without error; the failure
	// must still surface at flush time and be counted.
	for i := 0; i < 4; i++ {
		p.EmitSampled(0, Event{RequestID: uint64(i), Entity: "e"}, nil, nil)
	}
	if err := p.FlushSinks(); !errors.Is(err, boom) {
		t.Fatalf("FlushSinks = %v, want %v", err, boom)
	}
	if got := p.SinkErrors(); got == 0 {
		t.Fatal("sink error not counted")
	}
	// The error is sticky: later writes and flushes keep reporting it.
	if err := sink.WriteEvent(Event{}); !errors.Is(err, boom) {
		t.Fatalf("WriteEvent after failure = %v, want sticky %v", err, boom)
	}
	if err := sink.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush after failure = %v, want sticky %v", err, boom)
	}
}

// TestSysSamplerCachesWithinInterval checks that samples inside the
// refresh interval are served from cache (exactly one refresh) and that
// samples after the interval elapses trigger a recomputation.
func TestSysSamplerCachesWithinInterval(t *testing.T) {
	s := NewSysSampler(time.Hour)
	a := s.Sample()
	if a.Goroutines == 0 {
		t.Fatal("first sample empty")
	}
	for i := 0; i < 10; i++ {
		if b := s.Sample(); b != a {
			t.Fatalf("sample %d differs within refresh interval: %+v vs %+v", i, b, a)
		}
	}
	if got := s.Refreshes(); got != 1 {
		t.Fatalf("refreshes = %d, want 1 (stale-within-interval must serve cache)", got)
	}

	fast := NewSysSampler(time.Nanosecond)
	fast.Sample()
	time.Sleep(time.Millisecond)
	fast.Sample()
	if got := fast.Refreshes(); got != 2 {
		t.Fatalf("refreshes = %d, want 2 (refresh-after-interval must recompute)", got)
	}
}

// TestSysSamplerConcurrent: eight goroutines sampling at once share one
// refresh per interval, all see the same sample, and a cached sample
// costs the heap nothing.
func TestSysSamplerConcurrent(t *testing.T) {
	s := NewSysSampler(time.Hour)
	const goroutines, each = 8, 10_000
	var wg sync.WaitGroup
	samples := make([]SysSample, goroutines)
	for g := range samples {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v := s.Sample()
				if i > 0 && v != samples[g] {
					t.Errorf("goroutine %d: sample %+v, then %+v within the interval", g, samples[g], v)
					return
				}
				samples[g] = v
			}
		}()
	}
	wg.Wait()
	if got := s.Refreshes(); got != 1 {
		t.Fatalf("refreshes = %d, want 1", got)
	}
	for g := range samples {
		if samples[g] != samples[0] || samples[g].Goroutines == 0 {
			t.Fatalf("goroutine %d sampled %+v, goroutine 0 %+v", g, samples[g], samples[0])
		}
	}
	if n := testing.AllocsPerRun(1000, func() { s.Sample() }); n != 0 {
		t.Errorf("a cached sample allocates %v times, want 0", n)
	}
}
