package core

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// SysSampler provides cheap OS/runtime statistics for trace-event
// annotation. Reading runtime statistics is too expensive to do per
// event, so samples are cached and refreshed at a bounded rate.
//
// Every trace event samples, from every execution stream, so the cached
// path takes no lock: it reads the clock, the refresh deadline and the
// cached sample from atomics. The sample is two words, published under a
// sequence count (odd while the refresher writes them), so a reader never
// pairs one refresh's heap size with another's goroutine count. Only a
// refresher locks, to keep a second one from refreshing the same
// interval again.
type SysSampler struct {
	seq        atomic.Uint64 // odd while the cached sample is written
	heap       atomic.Uint64
	goroutines atomic.Int64
	due        atomic.Int64 // nanoseconds after epoch when the cache goes stale
	refreshes  atomic.Uint64

	mu      sync.Mutex // held by the refresher only
	read    [1]metrics.Sample
	epoch   time.Time
	refresh time.Duration
}

// NewSysSampler returns a sampler refreshing at most every refresh
// interval (default 10ms when zero).
func NewSysSampler(refresh time.Duration) *SysSampler {
	if refresh <= 0 {
		refresh = 10 * time.Millisecond
	}
	// runtime/metrics rather than runtime.ReadMemStats, which stops the
	// world — and every process's first sample lands inside the run it
	// annotates. The metric is MemStats.HeapAlloc by another name.
	s := &SysSampler{refresh: refresh, epoch: time.Now()}
	s.read[0].Name = "/memory/classes/heap/objects:bytes"
	return s
}

// Refreshes reports how many times the cached sample has actually been
// recomputed — the telemetry plane exposes it so the cost of system
// sampling is itself observable (and tests assert the caching bound).
func (s *SysSampler) Refreshes() uint64 { return s.refreshes.Load() }

// Sample returns the current (possibly cached) runtime statistics. Pool
// counters are filled in by the caller, which knows its Argobots pools.
func (s *SysSampler) Sample() SysSample {
	if now := int64(time.Since(s.epoch)); now >= s.due.Load() {
		s.refreshAt(now)
	}
	for {
		seq := s.seq.Load()
		if seq&1 == 0 {
			v := SysSample{HeapBytes: s.heap.Load(), Goroutines: int(s.goroutines.Load())}
			if s.seq.Load() == seq {
				return v
			}
		}
		runtime.Gosched() // the refresher is between its two stores
	}
}

// refreshAt recomputes the cached sample at now (nanoseconds after the
// epoch), unless another caller already did for this interval.
func (s *SysSampler) refreshAt(now int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refreshes.Load() != 0 && now < s.due.Load() {
		return
	}
	metrics.Read(s.read[:])
	s.seq.Add(1)
	s.heap.Store(s.read[0].Value.Uint64())
	s.goroutines.Store(int64(runtime.NumGoroutine()))
	s.seq.Add(1)
	s.due.Store(now + int64(s.refresh))
	s.refreshes.Add(1)
}
