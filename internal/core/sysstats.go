package core

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// SysSampler provides cheap OS/runtime statistics for trace-event
// annotation. Reading runtime statistics is too expensive to do per
// event, so samples are cached and refreshed at a bounded rate.
type SysSampler struct {
	mu        sync.Mutex
	last      time.Time
	cached    SysSample
	refresh   time.Duration
	refreshes uint64
}

// NewSysSampler returns a sampler refreshing at most every refresh
// interval (default 10ms when zero).
func NewSysSampler(refresh time.Duration) *SysSampler {
	if refresh <= 0 {
		refresh = 10 * time.Millisecond
	}
	return &SysSampler{refresh: refresh}
}

// Refreshes reports how many times the cached sample has actually been
// recomputed — the telemetry plane exposes it so the cost of system
// sampling is itself observable (and tests assert the caching bound).
func (s *SysSampler) Refreshes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refreshes
}

// Sample returns the current (possibly cached) runtime statistics. Pool
// counters are filled in by the caller, which knows its Argobots pools.
func (s *SysSampler) Sample() SysSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refreshes == 0 || time.Since(s.last) >= s.refresh {
		// runtime/metrics rather than runtime.ReadMemStats, which stops
		// the world — and every process's first sample lands inside the
		// run it annotates. The metric is MemStats.HeapAlloc by another
		// name.
		heap := [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(heap[:])
		s.cached = SysSample{
			HeapBytes:  heap[0].Value.Uint64(),
			Goroutines: runtime.NumGoroutine(),
		}
		s.last = time.Now()
		s.refreshes++
	}
	return s.cached
}
