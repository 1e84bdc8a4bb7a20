package abt

import (
	"fmt"
	"sync"
)

// Runtime groups the pools and execution streams of one (virtual)
// process, mirroring an ABT_init'd Argobots instance. It exists for
// lifecycle management: services build their pool/stream topology through
// it and tear everything down with Shutdown.
type Runtime struct {
	mu       sync.Mutex
	pools    map[string]*Pool
	xstreams []*XStream
	stopped  bool
}

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{pools: make(map[string]*Pool)}
}

// AddPool creates a named pool. Pool names are unique within a runtime.
func (r *Runtime) AddPool(name string) *Pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.pools[name]; dup {
		panic(fmt.Sprintf("abt: duplicate pool %q", name))
	}
	p := NewPool(name)
	r.pools[name] = p
	return p
}

// Pools returns a snapshot of all pools in the runtime.
func (r *Runtime) Pools() []*Pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Pool, 0, len(r.pools))
	for _, p := range r.pools {
		out = append(out, p)
	}
	return out
}

// AddXStreams starts n execution streams draining the given pools in
// priority order and returns them.
func (r *Runtime) AddXStreams(name string, n int, pools ...*Pool) []*XStream {
	xs := make([]*XStream, n)
	for i := range xs {
		xs[i] = NewXStream(fmt.Sprintf("%s-%d", name, i), pools...)
	}
	r.mu.Lock()
	r.xstreams = append(r.xstreams, xs...)
	r.mu.Unlock()
	return xs
}

// Shutdown stops all execution streams and hands the pooled detached
// workers to the process's idle list, for later runtimes' pools to take
// up; those beyond its bound exit. Work still queued or parked is
// abandoned; callers join their ULTs before shutting down.
func (r *Runtime) Shutdown() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	xs := r.xstreams
	pools := make([]*Pool, 0, len(r.pools))
	for _, p := range r.pools {
		pools = append(pools, p)
	}
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func(x *XStream) {
			defer wg.Done()
			x.Stop()
		}(x)
	}
	wg.Wait()
	for _, p := range pools {
		p.drainFree()
	}
}

// SchedStats aggregates scheduler activity across the runtime's streams:
// the steal/park/wake transitions the telemetry plane exports so ES
// sizing (the paper's C1/C2 knob) is observable live.
type SchedStats struct {
	Quanta uint64 // scheduling quanta executed
	Steals uint64 // ULTs taken from sibling rings
	Parks  uint64 // times a stream slept waiting for work
	Wakes  uint64 // single-waker tokens delivered
}

// SchedStats sums the per-stream scheduler counters.
func (r *Runtime) SchedStats() SchedStats {
	r.mu.Lock()
	xs := r.xstreams
	r.mu.Unlock()
	var s SchedStats
	for _, x := range xs {
		s.Quanta += x.Quanta()
		s.Steals += x.Steals()
		s.Parks += x.Parks()
		s.Wakes += x.Wakes()
	}
	return s
}
