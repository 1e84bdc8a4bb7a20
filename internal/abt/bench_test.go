package abt

import (
	"sync"
	"testing"
)

// BenchmarkULTSpawnJoin measures the full create→run→join cycle.
func BenchmarkULTSpawnJoin(b *testing.B) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 1, p)
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := p.Create("w", func(self *ULT) {})
		u.Join(nil)
	}
}

// BenchmarkYield measures one cooperative yield (park + requeue + resume).
func BenchmarkYield(b *testing.B) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 1, p)
	defer rt.Shutdown()
	u := p.Create("y", func(self *ULT) {
		for i := 0; i < b.N; i++ {
			self.Yield()
		}
	})
	u.Join(nil)
}

// BenchmarkEventualRoundTrip measures park-on-wait plus wake-on-set.
func BenchmarkEventualRoundTrip(b *testing.B) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 2, p)
	defer rt.Shutdown()
	u := p.Create("pingpong", func(self *ULT) {
		for i := 0; i < b.N; i++ {
			ev := NewEventual()
			p.Create("setter", func(*ULT) { ev.Set(nil) })
			ev.Wait(self)
		}
	})
	u.Join(nil)
}

// BenchmarkMutexUncontended measures lock/unlock without waiters.
func BenchmarkMutexUncontended(b *testing.B) {
	m := NewMutex()
	for i := 0; i < b.N; i++ {
		m.Lock(nil)
		m.Unlock()
	}
}

// BenchmarkSemaphore measures acquire/release without blocking.
func BenchmarkSemaphore(b *testing.B) {
	s := NewSemaphore(1)
	for i := 0; i < b.N; i++ {
		s.Acquire(nil)
		s.Release()
	}
}

// BenchmarkPoolSnapshot measures the trace-annotation sampling cost.
func BenchmarkPoolSnapshot(b *testing.B) {
	p := NewPool("m")
	for i := 0; i < b.N; i++ {
		_ = p.Snapshot()
	}
}

// BenchmarkPoolContention measures the shared-pool handoff under
// contention: four goroutines push detached ULTs into one pool drained
// by four execution streams, exercising the inject queue, wake
// propagation, steals, and park/unpark — the server-side dispatch path
// of a busy handler pool. One op is one ULT, in rounds of 256.
func BenchmarkPoolContention(b *testing.B) {
	rt := NewRuntime()
	p := rt.AddPool("main")
	rt.AddXStreams("es", 4, p)
	defer rt.Shutdown()

	const batch, pushers = 256, 4
	done := make(chan struct{}, batch)
	body := func(self *ULT) {
		self.Yield()
		done <- struct{}{}
	}
	round := func() {
		var wg sync.WaitGroup
		for g := 0; g < pushers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < batch/pushers; i++ {
					p.CreateDetached("c", body)
				}
			}()
		}
		wg.Wait()
		for i := 0; i < batch; i++ {
			<-done
		}
	}
	round() // warm the free list and worker goroutines
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		round()
	}
}
